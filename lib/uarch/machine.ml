let xeon_e5440 =
  {
    Pipeline.name = "xeon-e5440";
    make_predictor = Hybrid.xeon_like;
    make_indirect = (fun () -> Indirect.btb ~sets:512 ~ways:4 ());
    data_prefetcher = false;
    trace_cache = None;
    l1i = { Cache.size_bytes = 32 * 1024; assoc = 8; line_bytes = 64 };
    l1d = { Cache.size_bytes = 32 * 1024; assoc = 8; line_bytes = 64 };
    (* The E5440 package has 12MB of 24-way L2 shared by pairs of cores;
       with both cores active a core's *effective* share is nearer 4MB and
       8 ways, which is what governs conflict behaviour for one benchmark
       copy. That effective slice is what we model. *)
    l2 = { Cache.size_bytes = 4 * 1024 * 1024; assoc = 8; line_bytes = 64 };
    costs = { plain = 0.30; fp = 0.55; mul = 0.80; div = 6.0; mem = 0.40; term = 0.35 };
    penalties =
      {
        mispredict = 17.0;
        btb_miss = 14.0;
        l1i_miss = 10.0;
        l1d_miss = 9.0;
        l2_miss = 165.0;
        store_miss_factor = 0.35;
      };
    overlap = { chase = 1.0; random = 0.65; sequential = 0.10; fixed = 0.35 };
    wrong_path = true;
    perfect_btb = false;
  }

let with_predictor config ~name make_predictor =
  { config with Pipeline.make_predictor; name = config.Pipeline.name ^ "+" ^ name }

let with_perfect_prediction config =
  let config = with_predictor config ~name:"perfect" Perfect.perfect in
  { config with Pipeline.perfect_btb = true }

let without_wrong_path config =
  { config with Pipeline.wrong_path = false; name = config.Pipeline.name ^ "-nowp" }

let with_indirect config ~name make_indirect =
  { config with Pipeline.make_indirect; name = config.Pipeline.name ^ "+" ^ name }

let with_data_prefetcher config =
  { config with Pipeline.data_prefetcher = true; name = config.Pipeline.name ^ "+prefetch" }

let with_trace_cache ?(geometry = Trace_cache.default_geometry) config =
  { config with Pipeline.trace_cache = Some geometry; name = config.Pipeline.name ^ "+tc" }

(* A NetBurst-flavoured alternative machine: much deeper pipeline (so a far
   higher misprediction cost), a trace cache instead of a classic L1I path,
   and a smaller effective L2 — the kind of contemporaneous design the
   paper's Section 1.5 warns researchers not to bet on. Interferometry run
   on this machine yields visibly steeper Table-1 slopes. *)
let netburst_like =
  {
    xeon_e5440 with
    Pipeline.name = "netburst-like";
    trace_cache = Some Trace_cache.default_geometry;
    penalties =
      {
        Pipeline.mispredict = 31.0;
        btb_miss = 26.0;
        l1i_miss = 12.0;
        l1d_miss = 11.0;
        l2_miss = 210.0;
        store_miss_factor = 0.35;
      };
    l2 = { Cache.size_bytes = 2 * 1024 * 1024; assoc = 8; line_bytes = 64 };
  }
