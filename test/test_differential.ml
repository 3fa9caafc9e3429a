(* Differential testing of the compiled walker against the oracle, in the
   spirit of AnICA (PAPERS.md): instead of a few hand-picked benchmarks,
   generate many small random programs (Test_fuzz's Builder generator),
   trace each one, and require every optimised path — Replay.run and every
   lane of Replay.run_many, on both sweep axes — to reproduce
   Pipeline.run_unoptimized exactly, on several machines, with and without
   warmup. A divergence is shrunk to the smallest (seed, budget) pair that
   still diverges, and that pair is what the failure prints. *)

module Pipeline = Pi_uarch.Pipeline
module Replay = Pi_uarch.Replay
module Machine = Pi_uarch.Machine
module Sweep = Pi_uarch.Sweep
module Cache = Pi_uarch.Cache
module Interp = Pi_isa.Interp

(* Small tables so the random programs' few branches still alias. The
   dirty-history gshare starts with a non-zero history register, which
   sends it down the closure range like the kernel-less predictors. *)
let predictors =
  [|
    ("bimodal-6", fun () -> Pi_uarch.Bimodal.create ~entries_log2:6);
    ("gshare-8/6", fun () -> Pi_uarch.Gshare.create ~entries_log2:8 ~history_bits:6);
    ("gas-8/4", fun () -> Pi_uarch.Gas.create ~entries_log2:8 ~history_bits:4);
    ( "hybrid-8/5",
      fun () ->
        Pi_uarch.Hybrid.create ~gas_entries_log2:8 ~gas_history_bits:5 ~bimodal_entries_log2:6
          ~chooser_entries_log2:6 () );
    ("xeon-hybrid", Pi_uarch.Hybrid.xeon_like);
    ("L-TAGE", fun () -> Pi_uarch.Ltage.create ());
    ("perceptron", fun () -> Pi_uarch.Perceptron.create ~history_bits:12 ());
    ("tournament", fun () -> Pi_uarch.Tournament.create ());
    ("local-two-level", fun () -> Pi_uarch.Local_two_level.create ());
    ("static-taken", Pi_uarch.Perfect.always_taken);
    ("static-not-taken", Pi_uarch.Perfect.always_not_taken);
    ( "gshare-dirty-history",
      fun () ->
        let p = Pi_uarch.Gshare.create ~entries_log2:8 ~history_bits:6 in
        ignore (p.Pi_uarch.Predictor.on_branch ~pc:0 ~taken:true : bool);
        p );
  |]

(* Lanes replayed on a perfect-BTB plan: the perfect predictor only means
   something there (oracle indirect targets make total MPKI exactly 0). *)
let perfect_btb_predictors =
  [|
    ("perfect", Pi_uarch.Perfect.perfect);
    ("static-taken", Pi_uarch.Perfect.always_taken);
    ("L-TAGE", fun () -> Pi_uarch.Ltage.create ());
  |]

(* The two modelled machines, plus one with caches small enough that the
   random programs conflict in L1I and L2 and the prefetcher fills. *)
let tiny =
  Machine.with_data_prefetcher
    {
      Machine.xeon_e5440 with
      Pipeline.l1i = { Cache.size_bytes = 256; assoc = 2; line_bytes = 64 };
      l1d = { Cache.size_bytes = 256; assoc = 2; line_bytes = 64 };
      l2 = { Cache.size_bytes = 2048; assoc = 4; line_bytes = 64 };
    }

let machines =
  [ ("xeon_e5440", Machine.xeon_e5440); ("netburst_like", Machine.netburst_like); ("tiny", tiny) ]

(* Every third grid geometry the machine's associativities admit. *)
let cache_lanes (base : Pipeline.config) =
  let fits (g : Cache.geometry) = function
    | Sweep.Ways k -> k <= g.Cache.assoc
    | Sweep.Half -> Cache.geometry_sets g >= 2
    | Sweep.Double -> true
  in
  Sweep.cache_configurations ()
  |> List.filter (fun (_, vi, vd) -> fits base.Pipeline.l1i vi && fits base.Pipeline.l2 vd)
  |> List.filteri (fun i _ -> i mod 3 = 0)
  |> List.map (fun (name, vi, vd) ->
         ( name,
           Sweep.apply_cache_variant base.Pipeline.l1i vi,
           Sweep.apply_cache_variant base.Pipeline.l2 vd ))
  |> Array.of_list

let show (c : Pipeline.counts) =
  Printf.sprintf
    "cycles %h instr %d cond %d/%d ind %d/%d btb %d l1i %d/%d l1d %d/%d l2 %d/%d"
    c.Pipeline.cycles c.Pipeline.instructions c.Pipeline.cond_mispredicts c.Pipeline.cond_branches
    c.Pipeline.indirect_mispredicts c.Pipeline.indirect_branches c.Pipeline.btb_misses
    c.Pipeline.l1i_misses c.Pipeline.l1i_accesses c.Pipeline.l1d_misses c.Pipeline.l1d_accesses
    c.Pipeline.l2_misses c.Pipeline.l2_accesses

exception Diverged of string

let expect what ~oracle got =
  if got <> oracle then
    raise (Diverged (Printf.sprintf "%s\n  oracle: %s\n  got:    %s" what (show oracle) (show got)))

(* Predictor axis on one plan: the one-lane path for each configuration,
   then every lane of one fused pass over all of them. *)
let check_predictor_axis ~label ~warmup_blocks base trace placement lanes =
  let plan = Replay.compile base trace in
  let oracle =
    Array.map
      (fun (name, make) ->
        let config = { base with Pipeline.make_predictor = make; name } in
        let o = Pipeline.run_unoptimized ~warmup_blocks config trace placement in
        expect
          (Printf.sprintf "%s Replay.run %s" label name)
          ~oracle:o
          (Replay.run ~warmup_blocks (Replay.with_config plan config) placement);
        o)
      lanes
  in
  let batch = Replay.batch_of lanes in
  let src = Replay.batch_src batch in
  Array.iteri
    (fun j c ->
      expect
        (Printf.sprintf "%s run_many predictor lane %s" label (fst lanes.(src.(j))))
        ~oracle:oracle.(src.(j)) c)
    (Replay.run_many ~warmup_blocks plan batch placement)

let check_cache_axis ~label ~warmup_blocks (base : Pipeline.config) trace placement =
  let lanes = cache_lanes base in
  let plan = Replay.compile base trace in
  let batch = Replay.cache_batch_of ~l1i:base.Pipeline.l1i ~l2:base.Pipeline.l2 lanes in
  let src = Replay.batch_src batch in
  Array.iteri
    (fun j c ->
      let name, gi, gd = lanes.(src.(j)) in
      let config = { base with Pipeline.l1i = gi; l2 = gd } in
      expect
        (Printf.sprintf "%s run_many cache lane %s" label name)
        ~oracle:(Pipeline.run_unoptimized ~warmup_blocks config trace placement)
        c)
    (Replay.run_many ~warmup_blocks plan batch placement)

(* Every path, machine and warmup setting for one generated program. *)
let check_program ~seed ~budget =
  let p = Test_fuzz.random_program seed in
  let trace = Interp.run ~seed ~limits:{ Interp.max_blocks = budget; stop_proc = None } p in
  let placement = Pi_layout.Placement.make ~heap_random:(seed mod 2 = 0) p ~seed in
  let n = Pi_isa.Trace.blocks_executed trace in
  List.iter
    (fun (machine, base) ->
      List.iter
        (fun warmup_blocks ->
          let label = Printf.sprintf "%s warmup %d:" machine warmup_blocks in
          check_predictor_axis ~label ~warmup_blocks base trace placement predictors;
          check_predictor_axis ~label ~warmup_blocks
            (Machine.with_perfect_prediction base)
            trace placement perfect_btb_predictors;
          check_cache_axis ~label ~warmup_blocks base trace placement)
        [ 0; n / 3 ])
    machines

let diverges ~seed ~budget =
  match check_program ~seed ~budget with () -> None | exception Diverged msg -> Some msg

(* Shrink a diverging budget: halve while the program still diverges, then
   binary-search the boundary between the last passing and first failing
   budget. *)
let shrink ~seed ~budget =
  let rec halve b = if b > 1 && diverges ~seed ~budget:(b / 2) <> None then halve (b / 2) else b in
  let hi = halve budget in
  let rec search lo hi =
    (* [lo] passes (or is 0), [hi] diverges *)
    if hi - lo <= 1 then hi
    else
      let mid = (lo + hi) / 2 in
      if diverges ~seed ~budget:mid <> None then search lo mid else search mid hi
  in
  search (hi / 2) hi

(* Fixed cases keep the test deterministic; the budgets span short traces
   (warmup dominating) to ones long enough to wrap the small tables. *)
let cases = List.init 16 (fun i -> (7919 * (i + 1), 300 + (i * 190)))

let test_walker_matches_oracle () =
  let failures =
    List.filter_map
      (fun (seed, budget) ->
        match diverges ~seed ~budget with
        | None -> None
        | Some _ ->
            let b = shrink ~seed ~budget in
            Some (seed, b, Option.get (diverges ~seed ~budget:b)))
      cases
  in
  match List.sort (fun (_, a, _) (_, b, _) -> compare a b) failures with
  | [] -> ()
  | (seed, budget, msg) :: _ ->
      Alcotest.failf "%d of %d programs diverge; smallest diverging (seed %d, budget %d): %s"
        (List.length failures) (List.length cases) seed budget msg

let suite =
  [
    ( "differential",
      [
        Alcotest.test_case "generated programs: walker == oracle on both axes" `Quick
          test_walker_matches_oracle;
      ] );
  ]
