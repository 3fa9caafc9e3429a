(* The measuring side of the end-to-end benchmark. run.py starts one
   process of this program per phase (a cache fill, a measured workload,
   the daemon's load generator) and turns the JSON object it prints as
   its last stdout line into the benchmark's metrics.

     main.exe cold  --seed N --state DIR --t0 T --trace 0|1
     main.exe fill  --seed N --state DIR
     main.exe warm  --seed N --rounds R --state DIR --t0 T --trace 0|1
     main.exe sweep --seed N --rounds R --t0 T --trace 0|1
     main.exe serve --seed N --rounds R --state DIR --t0 T --trace 0|1 --daemon-pid P

   Every workload drives the program only through its public calls and
   checks what comes back against an oracle or a recomputation of its own;
   a failed check is reported in "errors" and fails the run. *)

module E = Interferometry.Experiment
module Campaign = Pi_campaign.Campaign
module Manifest = Pi_campaign.Manifest
module J = Pi_campaign.Telemetry
module Sweep = Pi_uarch.Sweep
module Pipeline = Pi_uarch.Pipeline
module Counters = Pi_uarch.Counters
module Placement = Pi_layout.Placement
module Span = Pi_obs.Span
module Clock = Pi_obs.Clock
module Client = Pi_serve.Client
module Spec = Pi_workloads.Spec
module Bench = Pi_workloads.Bench

(* ---- arguments, errors, output ----------------------------------- *)

let opt name =
  let rec go = function
    | k :: v :: _ when k = "--" ^ name -> Some v
    | _ :: rest -> go rest
    | [] -> None
  in
  go (Array.to_list Sys.argv)

let opt_int name default = Option.fold ~none:default ~some:int_of_string (opt name)
let opt_float name default = Option.fold ~none:default ~some:float_of_string (opt name)
let opt_str name default = Option.value (opt name) ~default
let seed = opt_int "seed" 1
let rounds = max 0 (opt_int "rounds" 1)
let traced = opt_int "trace" 0 = 1
let state_dir = opt_str "state" "."
let t_spawn = opt_float "t0" (Unix.gettimeofday ())
let rng = Random.State.make [| 0x5eed; seed |]
let errors = ref []
let error fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt

let check ok fmt =
  Printf.ksprintf (fun s -> if not ok then errors := s :: !errors) fmt

(* The fault this benchmark keeps as failed operations: the cache-axis
   degradation fit is rank-deficient whenever L1I MPKI does not vary over
   the 100 geometries. *)
let cholesky_fault = "Matrix.cholesky: not positive definite"

let is_cholesky_fault msg =
  let n = String.length cholesky_fault and m = String.length msg in
  let rec go i = i + n <= m && (String.sub msg i n = cholesky_fault || go (i + 1)) in
  go 0

let floats xs = J.List (List.map (fun x -> J.Float x) xs)

let emit fields =
  let fields =
    fields
    @ [ ("errors", J.List (List.rev_map (fun e -> J.String e) !errors)) ]
  in
  print_string (J.to_string (J.Obj fields));
  print_newline ()

(* ---- process measurements ----------------------------------------- *)

let cpu_self () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* utime + stime of another process (all its threads), from /proc. The
   comm field may hold spaces, so fields are counted after its ')'. *)
let cpu_of_pid pid =
  let stat = read_file (Printf.sprintf "/proc/%d/stat" pid) in
  let rest = String.sub stat (String.rindex stat ')' + 2) (String.length stat - String.rindex stat ')' - 2) in
  let fields = Array.of_list (String.split_on_char ' ' rest) in
  (* fields.(0) is field 3 (state); utime and stime are fields 14 and 15 *)
  float_of_string fields.(11) +. float_of_string fields.(12)
  |> fun ticks -> ticks /. 100.0

(* ---- numeric oracles ----------------------------------------------- *)

let mean xs = Array.fold_left ( +. ) 0.0 xs /. float_of_int (Array.length xs)

(* Ordinary least squares of y on one regressor: (slope, intercept, r^2). *)
let ols xs ys =
  let mx = mean xs and my = mean ys in
  let sxx = ref 0.0 and sxy = ref 0.0 and syy = ref 0.0 in
  Array.iteri
    (fun i x ->
      let dx = x -. mx and dy = ys.(i) -. my in
      sxx := !sxx +. (dx *. dx);
      sxy := !sxy +. (dx *. dy);
      syy := !syy +. (dy *. dy))
    xs;
  let slope = !sxy /. !sxx in
  (slope, my -. (slope *. mx), !sxy *. !sxy /. (!sxx *. !syy))

(* Least squares of y on two regressors, by the centred normal equations:
   the fitted values and r^2. *)
let ols2 x1 x2 ys =
  let m1 = mean x1 and m2 = mean x2 and my = mean ys in
  let s11 = ref 0.0 and s12 = ref 0.0 and s22 = ref 0.0 and s1y = ref 0.0 and s2y = ref 0.0 in
  Array.iteri
    (fun i y ->
      let a = x1.(i) -. m1 and b = x2.(i) -. m2 and c = y -. my in
      s11 := !s11 +. (a *. a);
      s12 := !s12 +. (a *. b);
      s22 := !s22 +. (b *. b);
      s1y := !s1y +. (a *. c);
      s2y := !s2y +. (b *. c))
    ys;
  let det = (!s11 *. !s22) -. (!s12 *. !s12) in
  let b1 = ((!s22 *. !s1y) -. (!s12 *. !s2y)) /. det in
  let b2 = ((!s11 *. !s2y) -. (!s12 *. !s1y)) /. det in
  let fitted = Array.mapi (fun i _ -> my +. (b1 *. (x1.(i) -. m1)) +. (b2 *. (x2.(i) -. m2))) ys in
  let sse = ref 0.0 and sst = ref 0.0 in
  Array.iteri
    (fun i y ->
      sse := !sse +. ((y -. fitted.(i)) ** 2.0);
      sst := !sst +. ((y -. my) ** 2.0))
    ys;
  (fitted, 1.0 -. (!sse /. !sst))

let close ?(rel = 1e-9) a b = Float.abs (a -. b) <= rel *. Float.max 1.0 (Float.max (Float.abs a) (Float.abs b))

let check_fit ~what ~slope ~intercept ~r2 xs ys =
  let s, i, r = ols xs ys in
  check
    (close s slope && close i intercept && close r r2)
    "%s: fit (%.9g, %.9g, r2 %.9g) differs from least squares (%.9g, %.9g, r2 %.9g)" what slope
    intercept r2 s i r

(* The legacy interpreter is the oracle for every replayed count. *)
let oracle ~warmup_blocks config (p : E.prepared) placement =
  Pipeline.run_unoptimized ~warmup_blocks config p.E.trace placement

(* A noisy measurement must retire exactly the oracle's instructions and
   stay inside the counter-noise band: cycles are a median of five runs
   with 0.08% jitter and rare one-sided OS spikes; events carry 0.1%
   jitter, up to ~1800 OS events and spill from a spiked run. *)
let check_band ~what (m : Counters.measurement) (c : Pipeline.counts) =
  let ideal = Counters.ideal c in
  check (m.Counters.instructions = float_of_int c.Pipeline.instructions)
    "%s: %.0f retired instructions, oracle %d" what m.Counters.instructions c.Pipeline.instructions;
  let dev = (m.Counters.cpi /. ideal.Counters.cpi) -. 1.0 in
  check (dev >= -0.005 && dev <= 0.25) "%s: CPI %.6f outside the noise band of oracle %.6f" what
    m.Counters.cpi ideal.Counters.cpi;
  let slack count =
    let v = float_of_int count in
    1000.0 *. ((0.01 *. v) +. 2000.0 +. (c.Pipeline.cycles /. 1600.0)) /. ideal.Counters.instructions
  in
  List.iter
    (fun (name, got, want, count) ->
      check (Float.abs (got -. want) <= slack count) "%s: %s %.6f outside the noise band of oracle %.6f"
        what name got want)
    [
      ("MPKI", m.Counters.mpki, ideal.Counters.mpki, Pipeline.mispredicts c);
      ("L1I MPKI", m.Counters.l1i_mpki, ideal.Counters.l1i_mpki, c.Pipeline.l1i_misses);
      ("L1D MPKI", m.Counters.l1d_mpki, ideal.Counters.l1d_mpki, c.Pipeline.l1d_misses);
      ("L2 MPKI", m.Counters.l2_mpki, ideal.Counters.l2_mpki, c.Pipeline.l2_misses);
    ]

let check_observation ~what (p : E.prepared) (o : E.observation) =
  let config = p.E.config in
  let placement =
    Placement.make ~heap_random:config.E.heap_random ~aslr:config.E.aslr p.E.program
      ~seed:o.E.layout_seed
  in
  check_band ~what o.E.measurement
    (oracle ~warmup_blocks:p.E.warmup_blocks config.E.machine p placement)

let pick n xs =
  let a = Array.of_list xs in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list (Array.sub a 0 (min n (Array.length a)))

(* ---- spans --------------------------------------------------------- *)

let spans_in ?(name = "") t0 t1 =
  List.filter
    (fun (e : Span.event) -> (name = "" || e.Span.name = name) && e.Span.ts >= t0 && e.Span.ts <= t1)
    (Span.events ())

let total evs = List.fold_left (fun acc (e : Span.event) -> acc +. e.Span.dur) 0.0 evs

(* The full per-layer table. Layers a workload does not exercise read 0;
   [sum] names the self-time layers whose seconds, plus unattributed_s,
   make up traced.wall_s. *)
let layer_names =
  [
    "prepare.calls"; "prepare.s"; "prepare.needed_ratio"; "layout.s"; "replay.s";
    "replay.minst_per_s"; "counters.s"; "fused.predictor_s"; "fused.cache_s";
    "fused.lane_minst_per_s"; "steer.lanes_replayed"; "steer.replay_ratio"; "steer.overhead_s";
    "study.reference_s"; "model.fit_s"; "obs_cache.load_s"; "obs_cache.hit_ratio";
    "obs_cache.stores"; "obs_cache.store_s"; "serve.submit_ms"; "serve.queue_ms";
    "serve.exec_ms"; "serve.result_ms"; "serve.polls_per_job";
  ]

let layers_json ?(totals = []) ~wall ~sum values =
  let get k = Option.value (List.assoc_opt k (totals @ values)) ~default:0.0 in
  let attributed = List.fold_left (fun acc k -> acc +. get k) 0.0 sum in
  J.Obj
    ([ ("traced.wall_s", J.Float wall) ]
    @ List.map (fun k -> (k, J.Float (get k))) layer_names
    @ [
        ("unattributed_s", J.Float (wall -. attributed));
        ("sum_of", J.Obj (List.map (fun k -> (k, J.Float (get k))) sum));
      ])

let result ~attempted ~failed ~ops ~wall ~cpu ~setup ~layers =
  emit
    ([
       ("attempted", J.Int attempted);
       ("failed", J.Int failed);
       ("ops_ms", floats ops);
       ("wall_s", J.Float wall);
       ("cpu_s", J.Float cpu);
       ("setup_s", J.Float setup);
     ]
    @ match layers with Some l -> [ ("layers", l) ] | None -> [])

(* ---- campaigns ----------------------------------------------------- *)

let n_layouts = 30
let campaign_config () = { E.default_config with E.master_seed = seed }
let cache_dir () = Filename.concat state_dir "cache"

(* A dataset's identity: every observation, bit for bit. *)
let digest_of (d : E.dataset) =
  Digest.to_hex
    (Digest.string
       (Marshal.to_string
          (Array.map (fun (o : E.observation) -> (o.E.layout_seed, o.E.measurement)) d.E.observations)
          []))

let check_outcomes ~what ~computed ~cached (r : Campaign.result) =
  check (Campaign.succeeded r) "%s: campaign did not succeed" what;
  let m = r.Campaign.manifest in
  check
    (m.Manifest.computed_jobs = computed && m.Manifest.cached_jobs = cached)
    "%s: %d computed + %d cached observations, expected %d + %d" what m.Manifest.computed_jobs
    m.Manifest.cached_jobs computed cached;
  List.iter
    (fun (o : Campaign.bench_outcome) ->
      let bench = o.Campaign.bench.Bench.name in
      match (o.Campaign.dataset, o.Campaign.entry.Manifest.fit) with
      | Some d, Some fit ->
          check
            (Array.length d.E.observations = n_layouts
            && Array.for_all Fun.id
                 (Array.mapi (fun i (ob : E.observation) -> ob.E.layout_seed = i + 1) d.E.observations))
            "%s %s: observations are not seeds 1..%d" what bench n_layouts;
          check_fit ~what:(what ^ " " ^ bench) ~slope:fit.Manifest.slope
            ~intercept:fit.Manifest.intercept ~r2:fit.Manifest.r_squared (E.mpkis d) (E.cpis d)
      | _ -> error "%s %s: no dataset or no fit" what bench)
    r.Campaign.outcomes

let write_digests path (r : Campaign.result) =
  Out_channel.with_open_bin path (fun oc ->
      List.iter
        (fun (o : Campaign.bench_outcome) ->
          Option.iter
            (fun d -> Printf.fprintf oc "%s %s\n" o.Campaign.bench.Bench.name (digest_of d))
            o.Campaign.dataset)
        r.Campaign.outcomes)

(* campaign-cold: the 2006 suite into an empty cache, one Campaign.run.
   One op is one observation, timed at the ?observe hook. *)
let cold () =
  let config = campaign_config () in
  let benches = Spec.all_2006 () in
  if traced then Span.set_enabled true;
  let lat = ref [] and first_op = ref 0.0 in
  let observe ~bench:_ ~prepared ~seed =
    if !first_op = 0.0 then first_op := Unix.gettimeofday ();
    let t = Clock.now () in
    let o = E.observe_seed prepared seed in
    lat := (Clock.now () -. t) :: !lat;
    o
  in
  let t0 = Clock.now () and c0 = cpu_self () in
  let r =
    Campaign.run ~config ~jobs:1 ~cache_dir:(cache_dir ()) ~observe ~n_layouts benches
  in
  let t1 = Clock.now () in
  let wall = t1 -. t0 and cpu = cpu_self () -. c0 in
  let ops = List.rev_map (fun s -> s *. 1000.0) !lat in
  let layers =
    if not traced then None
    else begin
      let m = r.Campaign.manifest in
      let prepares = spans_in ~name:"prepare" t0 t1 in
      let replays = spans_in ~name:"replay" t0 t1 in
      let replay_s = total replays and layout_s = total (spans_in ~name:"layout" t0 t1) in
      let observe_s = total (spans_in ~name:"observe" t0 t1) in
      let instructions =
        List.fold_left
          (fun acc (o : Campaign.bench_outcome) ->
            match o.Campaign.dataset with
            | Some d ->
                acc
                +. float_of_int
                     (d.E.prepared.E.trace.Pi_isa.Trace.instructions * o.Campaign.entry.Manifest.computed)
            | None -> acc)
          0.0 r.Campaign.outcomes
      in
      let hook_s = List.fold_left ( +. ) 0.0 !lat in
      Some
        (layers_json ~wall
           ~sum:
             [ "prepare.s"; "layout.s"; "replay.s"; "counters.s"; "obs_cache.load_s";
               "obs_cache.store_s"; "model.fit_s" ]
           [
             ("prepare.calls", float_of_int (List.length prepares));
             ("prepare.s", total prepares);
             ( "prepare.needed_ratio",
               float_of_int
                 (List.length
                    (List.filter (fun (e : Manifest.bench_entry) -> e.Manifest.computed > 0) m.Manifest.benches))
               /. float_of_int (max 1 (List.length prepares)) );
             ("layout.s", layout_s);
             ("replay.s", replay_s);
             ("replay.minst_per_s", instructions /. replay_s /. 1e6);
             ("counters.s", observe_s -. layout_s -. replay_s);
             ("obs_cache.load_s", total (spans_in ~name:"campaign.cache" t0 t1));
             ( "obs_cache.hit_ratio",
               float_of_int m.Manifest.cache_hits
               /. float_of_int (m.Manifest.cache_hits + m.Manifest.cache_misses) );
             ("obs_cache.stores", float_of_int m.Manifest.computed_jobs);
             ("obs_cache.store_s", total (spans_in ~name:"campaign.observe" t0 t1) -. hook_s);
             ("model.fit_s", total (spans_in ~name:"campaign.assemble" t0 t1));
           ])
    end
  in
  Span.set_enabled false;
  let n_benches = List.length benches in
  check_outcomes ~what:"cold" ~computed:(n_benches * n_layouts) ~cached:0 r;
  (* three sampled observations against the oracle *)
  let samples =
    pick 3
      (List.concat_map
         (fun (o : Campaign.bench_outcome) ->
           match o.Campaign.dataset with
           | Some d -> List.map (fun ob -> (d.E.prepared, ob)) (Array.to_list d.E.observations)
           | None -> [])
         r.Campaign.outcomes)
  in
  List.iter
    (fun ((p : E.prepared), (o : E.observation)) ->
      check_observation
        ~what:(Printf.sprintf "cold %s seed %d" p.E.bench.Bench.name o.E.layout_seed)
        p o)
    samples;
  result ~attempted:(List.length ops) ~failed:0 ~ops ~wall ~cpu
    ~setup:(!first_op -. t_spawn) ~layers

(* The warm workload's set-up, in a process of its own: the same campaign
   into the cache, recording each benchmark's dataset digest. *)
let fill () =
  let r =
    Campaign.run ~config:(campaign_config ()) ~jobs:1 ~cache_dir:(cache_dir ()) ~n_layouts
      (Spec.all_2006 ())
  in
  check_outcomes ~what:"fill" ~computed:(23 * n_layouts) ~cached:0 r;
  write_digests (Filename.concat state_dir "digests") r;
  emit []

(* campaign-warm: every seed is cached. One op is one Campaign.run over
   one benchmark; every pass over the suite also makes one whole-suite
   call. Each dataset must equal the fill's, bit for bit. *)
let warm () =
  let config = campaign_config () in
  let suite = Spec.all_2006 () in
  let want = Hashtbl.create 23 in
  List.iter
    (fun line ->
      match String.split_on_char ' ' line with
      | [ b; d ] -> Hashtbl.replace want b d
      | _ -> ())
    (String.split_on_char '\n' (read_file (Filename.concat state_dir "digests")));
  check (Hashtbl.length want = List.length suite) "warm: the fill recorded %d datasets"
    (Hashtbl.length want);
  let pass = None :: List.map Option.some suite in
  let ops_plan = List.concat (List.init rounds (fun _ -> pass)) in
  if traced then Span.set_enabled true;
  let first_op = Unix.gettimeofday () in
  let lat = ref [] in
  let t0 = Clock.now () and c0 = cpu_self () in
  let hits = ref 0 and probes = ref 0 and needed = ref 0 in
  List.iter
    (fun op ->
      let benches = match op with None -> suite | Some b -> [ b ] in
      let t = Clock.now () in
      let r = Campaign.run ~config ~jobs:1 ~cache_dir:(cache_dir ()) ~n_layouts benches in
      lat := (Clock.now () -. t) *. 1000.0 :: !lat;
      let m = r.Campaign.manifest in
      hits := !hits + m.Manifest.cache_hits;
      probes := !probes + m.Manifest.cache_hits + m.Manifest.cache_misses;
      List.iter
        (fun (e : Manifest.bench_entry) -> if e.Manifest.computed > 0 then incr needed)
        m.Manifest.benches;
      let what =
        match op with None -> "warm suite" | Some b -> "warm " ^ b.Bench.name
      in
      check_outcomes ~what ~computed:0 ~cached:(List.length benches * n_layouts) r;
      List.iter
        (fun (o : Campaign.bench_outcome) ->
          let b = o.Campaign.bench.Bench.name in
          Option.iter
            (fun d ->
              check (Hashtbl.find_opt want b = Some (digest_of d))
                "%s: %s dataset differs from the fill's" what b)
            o.Campaign.dataset)
        r.Campaign.outcomes)
    ops_plan;
  let t1 = Clock.now () in
  let wall = t1 -. t0 and cpu = cpu_self () -. c0 in
  let layers =
    if not traced then None
    else
      let prepares = spans_in ~name:"prepare" t0 t1 in
      Some
        (layers_json ~wall ~sum:[ "prepare.s"; "obs_cache.load_s"; "model.fit_s" ]
           [
             ("prepare.calls", float_of_int (List.length prepares));
             ("prepare.s", total prepares);
             ( "prepare.needed_ratio",
               float_of_int !needed /. float_of_int (max 1 (List.length prepares)) );
             ("obs_cache.load_s", total (spans_in ~name:"campaign.cache" t0 t1));
             ("obs_cache.hit_ratio", float_of_int !hits /. float_of_int (max 1 !probes));
             ("model.fit_s", total (spans_in ~name:"campaign.assemble" t0 t1));
           ])
  in
  Span.set_enabled false;
  let ops = List.rev !lat in
  result ~attempted:(List.length ops) ~failed:0 ~ops ~wall ~cpu ~setup:(first_op -. t_spawn)
    ~layers

(* ---- the Section 3 sweep ------------------------------------------- *)

let sweep_config = { E.default_config with E.scale = 2 }
let steered_benches = [ "183.equake"; "400.perlbench" ]

type axis = Predictor | Cache
type sweep_op = { bench : string; axis : axis; steered : bool }

type sweep_out =
  | Study of Sweep.study
  | Cache_study of Sweep.cache_study
  | Fault of string

let sweep_input prepared =
  let tbl = Hashtbl.create 32 in
  List.iter (fun (p : E.prepared) -> Hashtbl.replace tbl p.E.bench.Bench.name p) prepared;
  Hashtbl.find tbl

(* Placements: plain predictor-axis studies sweep a seed-chosen placement.
   Cache-axis studies use the natural one (as the daemon's cache_sweep
   does), so which of them hit the named fault does not depend on the seed;
   steered studies use it too, so whether steering prunes, and by how much,
   is the same in every run. *)
let placement_for (p : E.prepared) op =
  match op.axis with
  | Predictor when not op.steered -> Placement.make p.E.program ~seed
  | _ -> Placement.natural p.E.program

let run_sweep_op find op =
  let p : E.prepared = find op.bench in
  let placement = placement_for p op in
  let surrogate = if op.steered then Some (Sweep.Max_err 1.0) else None in
  let warmup_blocks = p.E.warmup_blocks and plan = p.E.plan in
  match op.axis with
  | Predictor ->
      Study
        (Sweep.run_study ~plan ~warmup_blocks ?surrogate ~benchmark:op.bench p.E.trace placement)
  | Cache -> (
      match
        Sweep.run_cache_study ~plan ~warmup_blocks ?surrogate ~benchmark:op.bench p.E.trace
          placement
      with
      | s -> Cache_study s
      | exception Failure msg when is_cholesky_fault msg -> Fault msg)

let base = Pi_uarch.Machine.xeon_e5440

let predictor_config name =
  match List.assoc_opt name (Sweep.configurations ()) with
  | Some make -> Pi_uarch.Machine.with_predictor base ~name make
  | None -> failwith ("no predictor configuration " ^ name)

let check_lane ~what (p : E.prepared) placement config ~cpi ~misses =
  let c = oracle ~warmup_blocks:p.E.warmup_blocks config p placement in
  check
    (Pipeline.cpi c = cpi && misses c)
    "%s: lane differs from the oracle (CPI %.9g vs %.9g)" what cpi (Pipeline.cpi c)

let check_predictor_lane ~what p placement (pt : Sweep.point) =
  check_lane ~what p placement (predictor_config pt.Sweep.config_name) ~cpi:pt.Sweep.cpi
    ~misses:(fun c -> Pipeline.mpki c = pt.Sweep.mpki)

let check_cache_lane ~what p placement (pt : Sweep.cache_point) =
  check_lane ~what p placement
    { base with Pipeline.l1i = pt.Sweep.l1i_geometry; l2 = pt.Sweep.l2_geometry }
    ~cpi:pt.Sweep.cache_cpi
    ~misses:(fun c -> Pipeline.l1i_mpki c = pt.Sweep.l1i_mpki && Pipeline.l2_mpki c = pt.Sweep.l2_mpki)

(* Every study's fit is recomputed; [sample] also replays one lane (or,
   for the named fault, the whole grid) through the oracle. Steered
   studies are always checked against the plain grid. *)
let check_sweep_op ~sample find op out =
  let p : E.prepared = find op.bench in
  let placement = placement_for p op in
  let what =
    Printf.sprintf "sweep %s %s%s" op.bench
      (match op.axis with Predictor -> "predictor" | Cache -> "cache")
      (if op.steered then " steered" else "")
  in
  let warmup_blocks = p.E.warmup_blocks and plan = p.E.plan in
  let sample = sample || op.steered in
  match out with
  | Study s ->
      let reg = s.Sweep.regression in
      check_fit ~what ~slope:reg.Pi_stats.Linreg.slope ~intercept:reg.Pi_stats.Linreg.intercept
        ~r2:reg.Pi_stats.Linreg.r_squared
        (Array.map (fun (pt : Sweep.point) -> pt.Sweep.mpki) s.Sweep.points)
        (Array.map (fun (pt : Sweep.point) -> pt.Sweep.cpi) s.Sweep.points);
      if sample && not op.steered then
        List.iter (check_predictor_lane ~what p placement) (pick 1 (Array.to_list s.Sweep.points));
      if op.steered then begin
        let truth, _, _, _, _ = Sweep.run_grid ~plan ~warmup_blocks p.E.trace placement in
        List.iter (check_predictor_lane ~what p placement) (pick 1 (Array.to_list truth));
        Array.iteri
          (fun i (pt : Sweep.point) ->
            let t = truth.(i) in
            match s.Sweep.sources.(i) with
            | Sweep.Replayed ->
                check (pt = t) "%s: replayed lane %s is not exact" what pt.Sweep.config_name
            | Sweep.Predicted ->
                check
                  (Float.abs (pt.Sweep.cpi -. t.Sweep.cpi) <= 0.01 *. t.Sweep.cpi)
                  "%s: predicted lane %s off by more than 1%%" what pt.Sweep.config_name)
          s.Sweep.points
      end
  | Cache_study s ->
      let seed_name = s.Sweep.seed_point.Sweep.geometry_name in
      let degraded =
        Array.of_list
          (List.filter
             (fun (pt : Sweep.cache_point) -> pt.Sweep.geometry_name <> seed_name)
             (Array.to_list s.Sweep.cache_points))
      in
      let col f = Array.map f degraded in
      let fitted, r2 =
        ols2
          (col (fun pt -> pt.Sweep.l1i_mpki))
          (col (fun pt -> pt.Sweep.l2_mpki))
          (col (fun pt -> pt.Sweep.cache_cpi))
      in
      let d = s.Sweep.degradation in
      check
        (close ~rel:1e-7 r2 d.Pi_stats.Multireg.r_squared
        && Array.for_all Fun.id
             (Array.mapi
                (fun i (pt : Sweep.cache_point) ->
                  close ~rel:1e-7 fitted.(i)
                    (Pi_stats.Multireg.predict d [| pt.Sweep.l1i_mpki; pt.Sweep.l2_mpki |]))
                degraded))
        "%s: degradation fit differs from least squares" what;
      if sample && not op.steered then
        List.iter (check_cache_lane ~what p placement) (pick 1 (Array.to_list s.Sweep.cache_points));
      if op.steered then begin
        let truth, _, _, _, _ = Sweep.run_cache_grid ~plan ~warmup_blocks p.E.trace placement in
        List.iter (check_cache_lane ~what p placement) (pick 1 (Array.to_list truth));
        Array.iteri
          (fun i (pt : Sweep.cache_point) ->
            let t = truth.(i) in
            match s.Sweep.cache_sources.(i) with
            | Sweep.Replayed ->
                check (pt = t) "%s: replayed lane %s is not exact" what pt.Sweep.geometry_name
            | Sweep.Predicted ->
                check
                  (Float.abs (pt.Sweep.cache_cpi -. t.Sweep.cache_cpi) <= 0.01 *. t.Sweep.cache_cpi)
                  "%s: predicted lane %s off by more than 1%%" what pt.Sweep.geometry_name)
          s.Sweep.cache_points
      end
  | Fault _ ->
      (* the named fault, and only it: L1I MPKI is constant over the grid *)
      if sample then begin
        let truth, _, _, _, _ = Sweep.run_cache_grid ~plan ~warmup_blocks p.E.trace placement in
        let l1i = truth.(0).Sweep.l1i_mpki in
        check
          (Array.for_all (fun (pt : Sweep.cache_point) -> pt.Sweep.l1i_mpki = l1i) truth)
          "%s: Cholesky failure although L1I MPKI varies over the grid" what
      end

let sweep_benches () =
  let suite = Spec.simulation_suite () in
  suite
  @ List.filter_map
      (fun n ->
        if List.exists (fun (b : Bench.t) -> b.Bench.name = n) suite then None
        else Some (Spec.find n))
      steered_benches

(* sweep: the Section 3 study over the 31-benchmark simulation suite, one
   placement per benchmark, on both axes; plus four steered studies. The
   plans are prepared in set-up, three times over; the median pass is the
   one reported. *)
let sweep () =
  if traced then Span.set_enabled true;
  let prepared = ref [] in
  let passes =
    List.init 3 (fun _ ->
        prepared := [];
        let t = Clock.now () in
        prepared := List.map (fun b -> E.prepare ~config:sweep_config b) (sweep_benches ());
        (t, Clock.now ()))
  in
  let dur (a, b) = b -. a in
  let median_pass = List.nth (List.sort (fun x y -> compare (dur x) (dur y)) passes) 1 in
  let find = sweep_input !prepared in
  let first_op = Unix.gettimeofday () in
  let setup =
    first_op -. t_spawn -. List.fold_left (fun acc p -> acc +. dur p) 0.0 passes +. dur median_pass
  in
  let one_round =
    List.concat_map
      (fun steered ->
        List.concat_map
          (fun b -> [ { bench = b; axis = Predictor; steered }; { bench = b; axis = Cache; steered } ])
          (if steered then steered_benches
           else List.map (fun (b : Bench.t) -> b.Bench.name) (Spec.simulation_suite ())))
      [ false; true ]
  in
  let plan = List.concat (List.init rounds (fun _ -> one_round)) in
  let t0 = Clock.now () and c0 = cpu_self () in
  let outs =
    List.map
      (fun op ->
        let t = Clock.now () in
        let out = run_sweep_op find op in
        (op, out, t, Clock.now ()))
      plan
  in
  let t1 = Clock.now () in
  let wall = t1 -. t0 and cpu = cpu_self () -. c0 in
  let layers =
    if not traced then None
    else begin
      let acc = Hashtbl.create 16 in
      let get k = Option.value (Hashtbl.find_opt acc k) ~default:0.0 in
      let add k v = Hashtbl.replace acc k (get k +. v) in
      List.iter
        (fun (op, out, ta, tb) ->
          (* grid replay time and lanes from the study record; a study that
             hit the named fault returns none, so its fused spans stand in *)
          let grid_s, lanes, replayed =
            match out with
            | Study s -> (s.Sweep.grid_seconds, Array.length s.Sweep.points, s.Sweep.replayed_lanes)
            | Cache_study s ->
                ( s.Sweep.cache_grid_seconds,
                  Array.length s.Sweep.cache_points,
                  s.Sweep.cache_replayed_lanes )
            | Fault _ ->
                let fused = spans_in ~name:"replay.fused" ta tb in
                let lanes =
                  List.fold_left
                    (fun acc (e : Span.event) -> acc + int_of_string (List.assoc "lanes" e.Span.args))
                    0 fused
                in
                (total fused, List.length (Sweep.cache_configurations ()), lanes)
          in
          let instructions = float_of_int (find op.bench).E.trace.Pi_isa.Trace.instructions in
          add "lane_inst" (float_of_int replayed *. instructions);
          add (match op.axis with Predictor -> "fused.predictor_s" | Cache -> "fused.cache_s") grid_s;
          let rest = tb -. ta -. grid_s in
          if op.steered then begin
            add "steer.overhead_s" rest;
            add "steer.lanes_replayed" (float_of_int replayed);
            add "grid_lanes" (float_of_int lanes)
          end
          else add (match op.axis with Predictor -> "study.reference_s" | Cache -> "model.fit_s") rest)
        outs;
      let a, b = median_pass in
      let prepares = spans_in ~name:"prepare" a b in
      Some
        (layers_json ~wall
           ~sum:
             [ "fused.predictor_s"; "fused.cache_s"; "steer.overhead_s"; "study.reference_s"; "model.fit_s" ]
           [
             ("prepare.calls", float_of_int (List.length prepares));
             ("prepare.s", total prepares);
             ("prepare.needed_ratio", 1.0);
             ("fused.predictor_s", get "fused.predictor_s");
             ("fused.cache_s", get "fused.cache_s");
             ( "fused.lane_minst_per_s",
               get "lane_inst" /. (get "fused.predictor_s" +. get "fused.cache_s") /. 1e6 );
             ("steer.lanes_replayed", get "steer.lanes_replayed");
             ("steer.replay_ratio", get "steer.lanes_replayed" /. get "grid_lanes");
             ("steer.overhead_s", get "steer.overhead_s");
             ("study.reference_s", get "study.reference_s");
             ("model.fit_s", get "model.fit_s");
           ])
    end
  in
  Span.set_enabled false;
  (* four plain studies get an oracle lane; two of the faults get their
     grid checked *)
  let plain kind = List.filter (fun (op, out, _, _) -> (not op.steered) && kind out) outs in
  let sampled =
    pick 4 (plain (function Fault _ -> false | _ -> true))
    @ pick 2 (plain (function Fault _ -> true | _ -> false))
  in
  List.iter
    (fun ((op, out, _, _) as o) -> check_sweep_op ~sample:(List.memq o sampled) find op out)
    outs;
  let ops = List.map (fun (_, _, ta, tb) -> (tb -. ta) *. 1000.0) outs in
  let failed =
    List.length (List.filter (fun (_, out, _, _) -> match out with Fault _ -> true | _ -> false) outs)
  in
  result ~attempted:(List.length ops) ~failed ~ops ~wall ~cpu ~setup ~layers

(* ---- the daemon ---------------------------------------------------- *)

let field name = function
  | J.Obj fields -> List.assoc_opt name fields
  | _ -> None

let str name j = match field name j with Some (J.String s) -> s | _ -> ""
let num = function J.Float f -> f | J.Int i -> float_of_int i | _ -> nan
let num_field name j = match field name j with Some v -> num v | None -> nan
let list_field name j = match field name j with Some (J.List l) -> l | _ -> []

let parse_json what s =
  match J.parse s with
  | Ok j -> j
  | Error msg -> failwith (Printf.sprintf "%s: unparsable JSON: %s" what msg)

let serve_layouts = 20
let poll_interval = 0.002

type job_op = {
  body : string;
  kind : string;
  layouts : int;
  label : string;
}

type job_outcome = {
  op : job_op;
  id : string;
  duplicate : bool;
  doc : string option;  (* None: failed with the named fault *)
  submit_s : float;
  wait_s : float;  (* from the acknowledgement until the client saw the job end *)
  result_s : float;
  polls : int;
  latency_s : float;
}

let job ~kind ~layouts label fields =
  { body = Printf.sprintf "{\"kind\":%S,%s}" kind fields; kind; layouts; label }

(* One closed-loop round trip: submit, poll status at millisecond grain,
   fetch the result. *)
let round_trip conn op =
  let t0 = Clock.now () in
  let ack =
    match Client.submit ~client:"e2e" conn ~body:op.body with
    | Ok j -> j
    | Error msg -> failwith (Printf.sprintf "%s: submit failed: %s" op.label msg)
  in
  let t_sub = Clock.now () in
  let id = str "id" ack in
  let duplicate = field "duplicate" ack = Some (J.Bool true) in
  let rec poll n =
    match Client.status conn ~id with
    | Error msg -> failwith (Printf.sprintf "%s: status failed: %s" op.label msg)
    | Ok st -> (
        match str "status" st with
        | "done" -> (n + 1, None)
        | "failed" -> (n + 1, Some (str "error" st))
        | _ ->
            Unix.sleepf poll_interval;
            poll (n + 1))
  in
  let polls, failure = poll 0 in
  let t_done = Clock.now () in
  let doc =
    match failure with
    | None -> (
        match Client.result conn ~id with
        | Ok doc -> Some doc
        | Error msg -> failwith (Printf.sprintf "%s: result failed: %s" op.label msg))
    | Some msg when op.kind = "cache_sweep" && is_cholesky_fault msg -> None
    | Some msg -> failwith (Printf.sprintf "%s: job failed: %s" op.label msg)
  in
  let t1 = Clock.now () in
  {
    op;
    id;
    duplicate;
    doc;
    submit_s = t_sub -. t0;
    wait_s = t_done -. t_sub;
    result_s = t1 -. t_done;
    polls;
    latency_s = t1 -. t0;
  }

let wait_done conn id =
  let rec go () =
    match Client.status conn ~id with
    | Ok st when str "status" st = "done" -> ()
    | Ok st when str "status" st = "failed" -> error "job %s failed: %s" id (str "error" st)
    | Ok _ ->
        Unix.sleepf poll_interval;
        go ()
    | Error msg -> error "job %s: %s" id msg
  in
  go ()

let measurement_of_json m : Counters.measurement =
  let f k = num_field k m in
  {
    Counters.cpi = f "cpi";
    mpki = f "mpki";
    l1i_mpki = f "l1i_mpki";
    l1d_mpki = f "l1d_mpki";
    l2_mpki = f "l2_mpki";
    cycles = f "cycles";
    instructions = f "instructions";
    mispredicts = f "mispredicts";
    l1i_misses = f "l1i_misses";
    l1d_misses = f "l1d_misses";
    l2_misses = f "l2_misses";
  }

let check_fit_json ~what fit obs =
  let col k = Array.of_list (List.map (fun o -> num_field k (Option.get (field "measurement" o))) obs) in
  check_fit ~what ~slope:(num_field "slope" fit) ~intercept:(num_field "intercept" fit)
    ~r2:(num_field "r_squared" fit) (col "mpki") (col "cpi")

let serve () =
  let daemon = opt_int "daemon-pid" 0 in
  let port_file = Filename.concat state_dir "serve.json" in
  (* readiness at millisecond grain *)
  let rec await_port n =
    if Sys.file_exists port_file then
      match Client.resolve ~state_dir () with Ok c -> c | Error _ -> retry n
    else retry n
  and retry n =
    if n = 0 then failwith "daemon wrote no port file";
    Unix.sleepf 0.001;
    await_port (n - 1)
  in
  let conn = await_port 20_000 in
  let rec await_ready n =
    match Client.wait_ready ~attempts:1 conn with
    | Ok () -> ()
    | Error msg when n = 0 -> failwith msg
    | Error _ ->
        Unix.sleepf 0.001;
        await_ready (n - 1)
  in
  await_ready 20_000;
  let s = 1 + (((seed mod 100_000) + 100_000) mod 100_000) in
  (* measure, predict and estimate jobs take the seed-derived master seed;
     cache sweeps keep the default one, so the named fault does not
     depend on the seed *)
  let seeded kind label b layouts =
    job ~kind ~layouts label
      (Printf.sprintf "\"bench\":%S,\"layouts\":%d,\"seed\":%d,\"quick\":true" b layouts s)
  in
  let unseeded kind label b layouts =
    job ~kind ~layouts label (Printf.sprintf "\"bench\":%S,\"layouts\":%d,\"quick\":true" b layouts)
  in
  let cached_b = "429.mcf" and grow_b = "400.perlbench" and est_b = "458.sjeng" in
  let cache_ok = "400.perlbench" and cache_fault = "456.hmmer" in
  let f = serve_layouts in
  (* set-up: fill the cache for the benchmarks the ops will hit *)
  let fills =
    List.map
      (fun b -> round_trip conn (seeded "measure" ("fill " ^ b) b f))
      [ cached_b; grow_b; est_b ]
  in
  let first_op = Unix.gettimeofday () in
  (* --rounds 0: set-up only, for the repeated set-ups run.py times *)
  if rounds = 0 then begin
    emit [ ("setup_s", J.Float (first_op -. t_spawn)) ];
    exit (if !errors = [] then 0 else 1)
  end;
  (* A predict job takes ~1 s, ten times any other op: on every second
     round only, so the tail op (10 ops beyond it) falls inside the
     cache-sweep class rather than on the edge of the predict one. *)
  let round r =
    let cached = seeded "measure" "cached measure" cached_b (f - 1 - r) in
    [
      cached;
      seeded "measure" "growing measure" grow_b (f + 1 + r);
      unseeded "cache_sweep" "cache_sweep" cache_ok (3 + r);
      unseeded "cache_sweep" "cache_sweep (fault)" cache_fault (3 + r);
      seeded "estimate" "estimate" est_b (f + 2 + (2 * r));
      { cached with label = "duplicate measure" };
    ]
    @ if r mod 2 = 0 then [ seeded "predict" "predict" cached_b (f - 1 - r) ] else []
  in
  let t0 = Clock.now () and c0 = cpu_of_pid daemon in
  let traces = ref [] and trace_fetch = ref 0.0 in
  let outs =
    List.concat
      (List.init rounds (fun r ->
           List.map
             (fun op ->
               let o = round_trip conn op in
               if traced && not o.duplicate then begin
                 let t = Clock.now () in
                 (match Client.trace conn ~id:o.id with
                 | Ok tr -> traces := (o, tr) :: !traces
                 | Error msg -> error "trace of %s: %s" o.id msg);
                 trace_fetch := !trace_fetch +. (Clock.now () -. t)
               end;
               o)
             (round r)))
  in
  (* the last estimate's refinement is part of the fixed work *)
  List.iter
    (fun o ->
      if o.op.kind = "estimate" then
        Option.iter (fun d -> wait_done conn (str "refined_job" (parse_json "estimate" d))) o.doc)
    outs;
  let t1 = Clock.now () in
  let wall = t1 -. t0 -. !trace_fetch in
  let cpu = cpu_of_pid daemon -. c0 in
  let layers =
    if not traced then None
    else begin
      let n = float_of_int (List.length outs) in
      let sum f = List.fold_left (fun acc o -> acc +. f o) 0.0 outs in
      let queue = ref 0.0 and exec = ref 0.0 and load = ref 0.0 and prep = ref 0.0 in
      (* the parts of queue and execution inside the client's wait: the
         worker may start before the acknowledgement reaches the client *)
      let queue_in = ref 0.0 and exec_in = ref 0.0 in
      let prep_calls = ref 0 and prep_needed = ref 0 and requested = ref 0 and missing = ref 0 in
      List.iter
        (fun (o, tr) ->
          let evs = list_field "traceEvents" (parse_json "trace" tr) in
          let dur name =
            List.fold_left
              (fun acc e -> if str "name" e = name then acc +. (num_field "dur" e /. 1e6) else acc)
              0.0 evs
          in
          let count name = List.length (List.filter (fun e -> str "name" e = name) evs) in
          let q = dur "job.queued" and x = dur "job" in
          queue := !queue +. q;
          exec := !exec +. x;
          let x_in = Float.min x o.wait_s in
          exec_in := !exec_in +. x_in;
          queue_in := !queue_in +. Float.min q (o.wait_s -. x_in);
          load := !load +. dur "job.cache";
          prep := !prep +. dur "prepare";
          prep_calls := !prep_calls + count "prepare";
          (* predict and cache_sweep jobs replay, so they always need their
             prepare; a measure job needs it only inside job.replay, for
             missing seeds *)
          prep_needed :=
            !prep_needed
            +
            if o.op.kind = "predict" || o.op.kind = "cache_sweep" then count "prepare"
            else min (count "prepare") (count "job.replay");
          (* seeds a measure or predict job asked for, and those it had
             to compute *)
          if o.op.kind = "measure" || o.op.kind = "predict" then
            requested := !requested + o.op.layouts;
          List.iter
            (fun e ->
              if str "name" e = "job.replay" then
                missing := !missing + int_of_string (str "missing" (Option.get (field "args" e))))
            evs)
        !traces;
      let n_traced = float_of_int (max 1 (List.length !traces)) in
      let ms x = x /. n *. 1000.0 in
      Some
        (layers_json ~wall
           ~sum:[ "serve.submit_s"; "serve.queue_s"; "serve.exec_s"; "serve.result_s" ]
           ~totals:
             [
               ("serve.submit_s", sum (fun o -> o.submit_s));
               ("serve.queue_s", !queue_in);
               ("serve.exec_s", !exec_in);
               ("serve.result_s", sum (fun o -> o.result_s));
             ]
           [
             ("prepare.calls", float_of_int !prep_calls);
             ("prepare.s", !prep);
             ( "prepare.needed_ratio",
               float_of_int !prep_needed /. float_of_int (max 1 !prep_calls) );
             ("obs_cache.load_s", !load);
             ( "obs_cache.hit_ratio",
               float_of_int (!requested - !missing) /. float_of_int (max 1 !requested) );
             ("serve.submit_ms", ms (sum (fun o -> o.submit_s)));
             ("serve.queue_ms", !queue /. n_traced *. 1000.0);
             ("serve.exec_ms", !exec /. n_traced *. 1000.0);
             ("serve.result_ms", ms (sum (fun o -> o.result_s)));
             ("serve.polls_per_job", sum (fun o -> float_of_int o.polls) /. n);
           ])
    end
  in
  (* checks on the result documents *)
  let fill_obs =
    List.map
      (fun o ->
        let d = parse_json "fill" (Option.get o.doc) in
        let b = List.hd (list_field "benches" d) in
        (str "bench" b, list_field "observations" b))
      fills
  in
  let first_doc = Hashtbl.create 16 in
  let oracle_checked = ref false in
  List.iter
    (fun o ->
      let what = Printf.sprintf "serve %s (%s)" o.op.label o.id in
      (match Hashtbl.find_opt first_doc o.op.body with
      | Some doc -> check (doc = o.doc) "%s: duplicate result differs from the first" what
      | None -> Hashtbl.replace first_doc o.op.body o.doc);
      check (o.duplicate = String.starts_with ~prefix:"duplicate" o.op.label)
        "%s: duplicate flag is %b" what o.duplicate;
      match o.doc with
      | None -> ()
      | Some text -> (
          let d = parse_json what text in
          match o.op.kind with
          | "measure" ->
              List.iter
                (fun b ->
                  let bench = str "bench" b in
                  let obs = list_field "observations" b in
                  check_fit_json ~what (Option.get (field "fit" b)) obs;
                  let want = Option.value (List.assoc_opt bench fill_obs) ~default:[] in
                  List.iteri
                    (fun i ob ->
                      check (num_field "seed" ob = float_of_int (i + 1)) "%s: seeds out of order" what;
                      if i < List.length want then
                        check (ob = List.nth want i) "%s: seed %d differs from the fill's" what (i + 1))
                    obs;
                  if bench = grow_b && not !oracle_checked then begin
                    (* one freshly computed observation against the oracle *)
                    oracle_checked := true;
                    let ob = List.nth obs (List.length obs - 1) in
                    check_observation ~what
                      (E.prepare ~config:{ E.quick_config with E.master_seed = s } (Spec.find bench))
                      {
                        E.layout_seed = int_of_float (num_field "seed" ob);
                        measurement = measurement_of_json (Option.get (field "measurement" ob));
                      }
                  end)
                (list_field "benches" d)
          | "predict" ->
              let want = Option.value (List.assoc_opt cached_b fill_obs) ~default:[] in
              let fit = Option.get (field "fit" d) in
              let n = int_of_float (num_field "n_layouts" fit) in
              check_fit_json ~what fit (List.filteri (fun i _ -> i < n) want);
              check (list_field "evaluations" d <> []) "%s: no evaluations" what
          | "cache_sweep" ->
              let pts = list_field "points" d in
              check (List.length pts = 100) "%s: %d points" what (List.length pts);
              let seed_name = str "geometry" (Option.get (field "seed_point" d)) in
              let deg = Array.of_list (List.filter (fun p -> str "geometry" p <> seed_name) pts) in
              let col k = Array.map (num_field k) deg in
              let fitted, r2 = ols2 (col "l1i_mpki") (col "l2_mpki") (col "cpi") in
              let g = Option.get (field "degradation" d) in
              let theirs p =
                num_field "intercept" g
                +. (num_field "l1i_mpki_coefficient" g *. num_field "l1i_mpki" p)
                +. (num_field "l2_mpki_coefficient" g *. num_field "l2_mpki" p)
              in
              check
                (Array.for_all Fun.id (Array.mapi (fun i p -> close ~rel:1e-7 (theirs p) fitted.(i)) deg)
                && close ~rel:1e-7 r2 (num_field "r_squared" g))
                "%s: degradation fit differs from least squares" what
          | "estimate" ->
              check (field "ok" d = Some (J.Bool true)) "%s: estimate not ok" what;
              let refined = str "refined_job" d in
              let cached = int_of_float (num_field "cached_layouts" d) in
              (match Client.result conn ~id:refined with
              | Ok twin ->
                  let b = List.hd (list_field "benches" (parse_json "twin" twin)) in
                  let obs = List.filteri (fun i _ -> i < cached) (list_field "observations" b) in
                  check_fit_json ~what (Option.get (field "fit" d)) obs
              | Error msg -> error "%s: refined job: %s" what msg)
          | _ -> ()))
    outs;
  (* the cache-sweep lanes of the passing bench against the oracle *)
  (match List.find_opt (fun o -> o.op.kind = "cache_sweep" && o.doc <> None) outs with
  | Some o ->
      let d = parse_json "cache_sweep" (Option.get o.doc) in
      let p = E.prepare ~config:E.quick_config (Spec.find cache_ok) in
      let placement = Placement.natural p.E.program in
      let pts = Array.of_list (list_field "points" d) in
      let i = Random.State.int rng (Array.length pts) in
      let name, vi, vd = List.nth (Sweep.cache_configurations ()) i in
      check (str "geometry" pts.(i) = name) "serve cache_sweep: point %d is %s, expected %s" i
        (str "geometry" pts.(i)) name;
      let config =
        {
          base with
          Pipeline.l1i = Sweep.apply_cache_variant base.Pipeline.l1i vi;
          l2 = Sweep.apply_cache_variant base.Pipeline.l2 vd;
        }
      in
      let c = oracle ~warmup_blocks:p.E.warmup_blocks config p placement in
      check
        (Pipeline.cpi c = num_field "cpi" pts.(i) && Pipeline.l1i_mpki c = num_field "l1i_mpki" pts.(i))
        "serve cache_sweep: lane %s differs from the oracle" name
  | None -> error "serve: no cache_sweep succeeded");
  let ops = List.map (fun o -> o.latency_s *. 1000.0) outs in
  let failed = List.length (List.filter (fun o -> o.doc = None) outs) in
  result ~attempted:(List.length ops) ~failed ~ops ~wall ~cpu ~setup:(first_op -. t_spawn)
    ~layers

let () =
  let mode = if Array.length Sys.argv > 1 then Sys.argv.(1) else "" in
  match
    match mode with
    | "cold" -> cold ()
    | "fill" -> fill ()
    | "warm" -> warm ()
    | "sweep" -> sweep ()
    | "serve" -> serve ()
    | m -> failwith ("unknown mode " ^ m)
  with
  | () -> exit (if !errors = [] then 0 else 1)
  | exception e ->
      error "%s" (Printexc.to_string e);
      emit [];
      exit 1
