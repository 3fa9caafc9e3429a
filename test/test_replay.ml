(* Golden-equivalence tests for the compiled replay path: Replay.run must
   reproduce Pipeline.run_unoptimized field-for-field (bit-identical cycles
   included) over a matrix of benchmarks x seeds x machines, with and
   without warmup, and for every predictor family that has an inline
   kernel. *)

module Pipeline = Pi_uarch.Pipeline
module Replay = Pi_uarch.Replay
module Machine = Pi_uarch.Machine
module Placement = Pi_layout.Placement

let check_counts label (a : Pipeline.counts) (b : Pipeline.counts) =
  let ck name got expect = Alcotest.(check int) (label ^ ": " ^ name) expect got in
  Alcotest.(check bool)
    (label ^ ": cycles bit-identical") true
    (a.Pipeline.cycles = b.Pipeline.cycles);
  ck "instructions" b.Pipeline.instructions a.Pipeline.instructions;
  ck "cond_branches" b.Pipeline.cond_branches a.Pipeline.cond_branches;
  ck "cond_mispredicts" b.Pipeline.cond_mispredicts a.Pipeline.cond_mispredicts;
  ck "indirect_branches" b.Pipeline.indirect_branches a.Pipeline.indirect_branches;
  ck "indirect_mispredicts" b.Pipeline.indirect_mispredicts a.Pipeline.indirect_mispredicts;
  ck "btb_misses" b.Pipeline.btb_misses a.Pipeline.btb_misses;
  ck "l1i_accesses" b.Pipeline.l1i_accesses a.Pipeline.l1i_accesses;
  ck "l1i_misses" b.Pipeline.l1i_misses a.Pipeline.l1i_misses;
  ck "l1d_accesses" b.Pipeline.l1d_accesses a.Pipeline.l1d_accesses;
  ck "l1d_misses" b.Pipeline.l1d_misses a.Pipeline.l1d_misses;
  ck "l2_accesses" b.Pipeline.l2_accesses a.Pipeline.l2_accesses;
  ck "l2_misses" b.Pipeline.l2_misses a.Pipeline.l2_misses

let benches = [ "400.perlbench"; "403.gcc"; "429.mcf"; "445.gobmk" ]
let seeds = [ 1; 2; 3 ]

let machines =
  [
    ("xeon_e5440", Machine.xeon_e5440);
    (* The NetBurst-style machine exercises the trace cache; adding the
       data prefetcher also exerces prefetch fills on the replay path. *)
    ("netburst+prefetch", Machine.with_data_prefetcher Machine.netburst_like);
  ]

let traced name =
  let bench = Pi_workloads.Spec.find name in
  let p = bench.Pi_workloads.Bench.build ~scale:1 in
  (p, Pi_layout.Run_limiter.trace p ~budget_blocks:8_000)

let test_golden_matrix () =
  List.iter
    (fun bench_name ->
      let p, trace = traced bench_name in
      List.iter
        (fun (machine_name, config) ->
          let plan = Replay.compile config trace in
          List.iter
            (fun seed ->
              let placement = Placement.make p ~seed in
              let label = Printf.sprintf "%s/%s/seed%d" bench_name machine_name seed in
              let legacy = Pipeline.run_unoptimized config trace placement in
              check_counts label (Replay.run plan placement) legacy)
            seeds)
        machines)
    benches

let test_golden_with_warmup () =
  let p, trace = traced "400.perlbench" in
  List.iter
    (fun (machine_name, config) ->
      let plan = Replay.compile config trace in
      let placement = Placement.make p ~seed:7 in
      let legacy = Pipeline.run_unoptimized ~warmup_blocks:1500 config trace placement in
      check_counts
        ("warmup/" ^ machine_name)
        (Replay.run ~warmup_blocks:1500 plan placement)
        legacy)
    machines

(* Pipeline.run is documented as compile-then-replay; keep it honest. *)
let test_run_is_replay () =
  let p, trace = traced "429.mcf" in
  let config = Machine.xeon_e5440 in
  let placement = Placement.make p ~seed:11 in
  check_counts "run = compile;replay"
    (Pipeline.run config trace placement)
    (Replay.run (Replay.compile config trace) placement)

(* Every predictor family with an inline kernel (bimodal, gshare, GAs,
   hybrid) plus a kernel-less predictor (perceptron, a closure lane):
   replay must match the closure-driven legacy path on live state. *)
let test_kernel_families () =
  let p, trace = traced "445.gobmk" in
  let families =
    [
      ("bimodal", fun () -> Pi_uarch.Bimodal.create ~entries_log2:12);
      ("gshare", fun () -> Pi_uarch.Gshare.create ~entries_log2:12 ~history_bits:8);
      ("gas", fun () -> Pi_uarch.Gas.create ~entries_log2:12 ~history_bits:6);
      ("hybrid", Pi_uarch.Hybrid.xeon_like);
      ("perceptron (no kernel)", fun () -> Pi_uarch.Perceptron.create ~history_bits:12 ());
    ]
  in
  List.iter
    (fun (name, make_predictor) ->
      let config = { Machine.xeon_e5440 with Pipeline.make_predictor } in
      let plan = Replay.compile config trace in
      List.iter
        (fun seed ->
          let placement = Placement.make p ~seed in
          let label = Printf.sprintf "kernel %s seed%d" name seed in
          check_counts label
            (Replay.run plan placement)
            (Pipeline.run_unoptimized config trace placement))
        [ 2; 5 ])
    families

(* with_config must be equivalent to a fresh compile whether it reuses the
   packed arrays (predictor-only change) or recompiles (cost change). *)
let test_with_config () =
  let p, trace = traced "400.perlbench" in
  let base = Machine.xeon_e5440 in
  let plan = Replay.compile base trace in
  let placement = Placement.make p ~seed:3 in
  let variants =
    [
      ( "predictor swap (reuses arrays)",
        { base with Pipeline.make_predictor = (fun () -> Pi_uarch.Bimodal.create ~entries_log2:10) } );
      ( "penalty change (recompiles)",
        { base with Pipeline.penalties = { base.Pipeline.penalties with Pipeline.l2_miss = 300.0 } } );
    ]
  in
  List.iter
    (fun (label, config) ->
      check_counts label
        (Replay.run (Replay.with_config plan config) placement)
        (Pipeline.run_unoptimized config trace placement))
    variants

let test_plan_introspection () =
  let _, trace = traced "429.mcf" in
  let plan = Replay.compile Machine.xeon_e5440 trace in
  Alcotest.(check int) "plan blocks = trace blocks"
    (Pi_isa.Trace.blocks_executed trace) (Replay.blocks plan);
  Alcotest.(check bool) "plan has mem events" true (Replay.mem_events plan > 0);
  Alcotest.(check bool) "plan words accounted" true (Replay.words plan > 0)

let suite =
  [
    ( "replay",
      [
        Alcotest.test_case "golden matrix: 4 benches x 3 seeds x 2 machines" `Quick
          test_golden_matrix;
        Alcotest.test_case "golden with warmup" `Quick test_golden_with_warmup;
        Alcotest.test_case "run = compile;replay" `Quick test_run_is_replay;
        Alcotest.test_case "predictor kernels match closures" `Quick test_kernel_families;
        Alcotest.test_case "with_config reuse and recompile" `Quick test_with_config;
        Alcotest.test_case "plan introspection" `Quick test_plan_introspection;
      ] );
  ]
