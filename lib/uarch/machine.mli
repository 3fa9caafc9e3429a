(** The modelled machine: an Intel Xeon E5440 stand-in.

    Bundles the default pipeline configuration — Xeon-like hybrid branch
    predictor, 32KB 8-way L1I and L1D, a 24-way L2 slice, Core-2-era
    penalties — and helpers to swap the branch predictor while keeping the
    rest of the machine fixed, which is exactly the counterfactual program
    interferometry asks about ("what if Intel changed only the
    predictor?"). *)

val xeon_e5440 : Pipeline.config

val netburst_like : Pipeline.config
(** Deep-pipeline alternative (trace cache, ~31-cycle refill, smaller L2):
    the paper's Section 1.5 point that future-microarchitecture guesses are
    risky. Interferometry on this machine yields steeper mispredict
    costs. *)

val with_predictor : Pipeline.config -> name:string -> (unit -> Predictor.t) -> Pipeline.config
(** Replace the branch predictor (and the config name). *)

val with_perfect_prediction : Pipeline.config -> Pipeline.config

val without_wrong_path : Pipeline.config -> Pipeline.config
(** Ablation: disable wrong-path cache side effects. *)

val with_indirect :
  Pipeline.config -> name:string -> (unit -> Indirect.t) -> Pipeline.config
(** Swap the indirect-target predictor (e.g. {!Indirect.ittage}). *)

val with_data_prefetcher : Pipeline.config -> Pipeline.config
(** Enable the stride prefetcher (ablation). *)

val with_trace_cache : ?geometry:Trace_cache.geometry -> Pipeline.config -> Pipeline.config
(** Enable the placement-immune trace cache (ablation). *)
