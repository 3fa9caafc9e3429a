module E = Interferometry.Experiment
module Dataset_io = Interferometry.Dataset_io
module Pipeline = Pi_uarch.Pipeline
module Counters = Pi_uarch.Counters
module Cache = Pi_uarch.Cache

type t = { dir : string }

(* Distinguishes concurrent writers within one process (scheduler domains
   or parallel campaigns in tests); the pid distinguishes processes. *)
let tmp_counter = Atomic.make 0

(* A crashed (or killed) writer leaves its unique temp file behind; the
   entry itself is intact, so the orphan is pure garbage. Reap it on the
   next [create] — but only once it is old enough that it cannot belong to
   a still-running campaign sharing this directory. *)
let orphan_tmp_age = 600.0

let cleanup_orphan_tmps dir =
  match Sys.readdir dir with
  | exception Sys_error _ -> ()
  | entries ->
      let now = Unix.time () in
      Array.iter
        (fun name ->
          if Filename.check_suffix name ".tmp" then
            let path = Filename.concat dir name in
            match Unix.stat path with
            | { Unix.st_kind = Unix.S_REG; st_mtime; _ }
              when now -. st_mtime > orphan_tmp_age -> (
                try Sys.remove path with Sys_error _ -> ())
            | _ | (exception Unix.Unix_error _) -> ())
        entries

let create ~dir =
  Pi_obs.Fs.mkdir_p dir;
  cleanup_orphan_tmps dir;
  { dir }

let dir t = t.dir

type stats = { entries : int; bytes : int }

let m_entries =
  Pi_obs.Metrics.gauge ~help:"observation-cache entries (CSV files) on disk"
    "pi_obs_obs_cache_entries"

let m_bytes =
  Pi_obs.Metrics.gauge ~help:"observation-cache bytes on disk"
    "pi_obs_obs_cache_bytes"

(* One readdir + one stat per entry: cheap enough for a /metrics scrape.
   In-flight [*.tmp] files are a writer's scratch, not cache content. *)
let stats t =
  match Sys.readdir t.dir with
  | exception Sys_error _ -> { entries = 0; bytes = 0 }
  | names ->
      Array.fold_left
        (fun acc name ->
          if not (Filename.check_suffix name ".csv") then acc
          else
            match Unix.stat (Filename.concat t.dir name) with
            | { Unix.st_kind = Unix.S_REG; st_size; _ } ->
                { entries = acc.entries + 1; bytes = acc.bytes + st_size }
            | _ | (exception Unix.Unix_error _) -> acc)
        { entries = 0; bytes = 0 } names

let update_gauges t =
  let s = stats t in
  Pi_obs.Metrics.set m_entries (float_of_int s.entries);
  Pi_obs.Metrics.set m_bytes (float_of_int s.bytes);
  s

(* The digest must cover every config field that can change a measurement,
   and must not depend on closure identity: predictors are represented by
   the machine's name. A "v1|" prefix versions the key so a future format
   change invalidates old entries instead of misreading them. *)
let config_key (c : E.config) =
  let buf = Buffer.create 256 in
  let add fmt = Printf.ksprintf (fun s -> Buffer.add_string buf s) fmt in
  add "v1|scale=%d|budget=%d|warmup=%.9g|runs=%d|master=%d|heap=%b|aslr=%b" c.E.scale
    c.E.budget_blocks c.E.warmup_fraction c.E.runs_per_group c.E.master_seed c.E.heap_random
    c.E.aslr;
  let n = c.E.noise in
  add "|noise=%.9g,%.9g,%.9g,%.9g,%.9g" n.Counters.cycle_sigma n.Counters.spike_probability
    n.Counters.spike_scale n.Counters.event_sigma n.Counters.os_events_per_run;
  let m = c.E.machine in
  add "|machine=%s" m.Pipeline.name;
  let geometry (g : Cache.geometry) = add ",%d/%d/%d" g.size_bytes g.assoc g.line_bytes in
  geometry m.Pipeline.l1i;
  geometry m.Pipeline.l1d;
  geometry m.Pipeline.l2;
  (match m.Pipeline.trace_cache with
  | None -> add "|tc=none"
  | Some g -> add "|tc=%d/%d" g.Pi_uarch.Trace_cache.entries_log2 g.Pi_uarch.Trace_cache.assoc);
  let p = m.Pipeline.penalties in
  add "|pen=%.9g,%.9g,%.9g,%.9g,%.9g,%.9g" p.Pipeline.mispredict p.Pipeline.btb_miss
    p.Pipeline.l1i_miss p.Pipeline.l1d_miss p.Pipeline.l2_miss p.Pipeline.store_miss_factor;
  let ic = m.Pipeline.costs in
  add "|cost=%.9g,%.9g,%.9g,%.9g,%.9g,%.9g" ic.Pipeline.plain ic.Pipeline.fp ic.Pipeline.mul
    ic.Pipeline.div ic.Pipeline.mem ic.Pipeline.term;
  let o = m.Pipeline.overlap in
  add "|ovl=%.9g,%.9g,%.9g,%.9g" o.Pipeline.chase o.Pipeline.random o.Pipeline.sequential
    o.Pipeline.fixed;
  add "|flags=%b,%b,%b" m.Pipeline.data_prefetcher m.Pipeline.wrong_path m.Pipeline.perfect_btb;
  Buffer.contents buf

let config_digest config = Digest.to_hex (Digest.string (config_key config))

(* Benchmark names come from the registry, but custom benches are
   arbitrary strings; a name containing '/' (or a path escape like "..")
   must not address files outside the cache root. Percent-escaping is
   injective — '%' itself is escaped, so distinct names never collide —
   and keeps registry names (all [A-Za-z0-9_.-]) byte-identical. *)
let sanitize_bench_name bench =
  let plain = function
    | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true
    | _ -> false
  in
  if bench <> "" && String.for_all plain bench then bench
  else begin
    let buf = Buffer.create (String.length bench + 8) in
    String.iter
      (fun c ->
        if plain c then Buffer.add_char buf c
        else Printf.bprintf buf "%%%02X" (Char.code c))
      bench;
    Buffer.contents buf
  end

(* Entries are addressed by the FULL config digest. Earlier versions
   truncated it to 16 hex chars (64 bits), which is exactly the silent
   collision a content-addressed store exists to rule out: two distinct
   configs sharing a cache directory could map to one file and
   cross-contaminate observations through the read-merge-write in [store].
   Old-style names are still accepted on read (see [load]) so existing
   caches migrate transparently; [store] always writes the full name and
   retires the truncated one. *)
let entry_path t ~bench ~config =
  Filename.concat t.dir
    (Printf.sprintf "%s.%s.csv" (sanitize_bench_name bench) (config_digest config))

let legacy_entry_path t ~bench ~config =
  let digest = String.sub (config_digest config) 0 16 in
  Filename.concat t.dir (Printf.sprintf "%s.%s.csv" (sanitize_bench_name bench) digest)

let m_corrupt =
  Pi_obs.Metrics.counter
    ~help:"observation-cache entries that failed to parse and were treated as misses"
    "pi_obs_obs_cache_corrupt_total"

(* One read attempt, opening the file directly: a [Sys.file_exists]
   pre-check would race the orphan reaper or a concurrent [rename]
   (TOCTOU) — absence is only decided at [open] time, where ENOENT simply
   means a miss. [None] = no entry; [Some (Error _)] = an entry that
   exists but does not parse. *)
let read_entry path =
  match Dataset_io.load_observations path with
  | result -> Some result
  | exception Sys_error _ -> None

let load t ~bench ~config =
  let entry =
    let full = entry_path t ~bench ~config in
    match read_entry full with
    | Some result -> Some (full, result)
    | None ->
        (* Migration read: a cache written before full-digest addressing
           holds this entry under the truncated name. Only consulted when
           the full-digest file is absent — once [store] migrates the
           entry, the ambiguous legacy file is never read again. *)
        let legacy = legacy_entry_path t ~bench ~config in
        Option.map (fun result -> (legacy, result)) (read_entry legacy)
  in
  match entry with
  | None -> [||]
  | Some (path, Error reason) ->
      (* A corrupt entry behaves as a miss and is rewritten — but never
         silently: the next [store]'s read-merge-write starts from this
         empty load, dropping every previously cached seed of the entry,
         and that loss must be visible. *)
      Pi_obs.Metrics.inc m_corrupt;
      Pi_obs.Log.warn
        ~fields:[ ("path", path); ("bench", bench) ]
        "corrupt observation-cache entry treated as a miss: %s" reason;
      [||]
  | Some (_, Ok observations) ->
      let sorted = Array.copy observations in
      Array.sort
        (fun (a : E.observation) (b : E.observation) ->
          compare a.E.layout_seed b.E.layout_seed)
        sorted;
      sorted

let store t ~bench ~config observations =
  let path = entry_path t ~bench ~config in
  let by_seed = Hashtbl.create 64 in
  Array.iter (fun (o : E.observation) -> Hashtbl.replace by_seed o.E.layout_seed o) (load t ~bench ~config);
  Array.iter (fun (o : E.observation) -> Hashtbl.replace by_seed o.E.layout_seed o) observations;
  let merged = Hashtbl.fold (fun _ o acc -> o :: acc) by_seed [] in
  let merged =
    List.sort
      (fun (a : E.observation) b -> compare a.E.layout_seed b.E.layout_seed)
      merged
  in
  (* Unique temp name per writer: two campaigns sharing a cache directory
     must never clobber each other's in-flight write, and a crash must
     leave an identifiable orphan (reaped by [create]) rather than a stale
     fixed-name ".tmp" blocking the next writer. fsync before the rename
     makes the entry durable before it becomes visible: after a power
     loss the path holds either the old entry or the complete new one. *)
  let tmp =
    Printf.sprintf "%s.%d.%d.tmp" path (Unix.getpid ())
      (Atomic.fetch_and_add tmp_counter 1)
  in
  (try
     let oc = open_out tmp in
     Fun.protect
       ~finally:(fun () -> close_out oc)
       (fun () ->
         output_string oc (Dataset_io.header_line ^ "\n");
         List.iter
           (fun o -> output_string oc (Dataset_io.observation_to_row o ^ "\n"))
           merged;
         flush oc;
         Unix.fsync (Unix.descr_of_out_channel oc))
   with e ->
     (try Sys.remove tmp with Sys_error _ -> ());
     raise e);
  Sys.rename tmp path;
  (* Migration write: the entry now lives under its full-digest name, so a
     leftover truncated-digest file (pre-fix caches) is retired — it is
     ambiguous by construction (any config sharing the 64-bit prefix maps
     to it) and must not shadow future reads. *)
  let legacy = legacy_entry_path t ~bench ~config in
  if legacy <> path then try Sys.remove legacy with Sys_error _ -> ()
