(** File-system helpers shared by every writer of artifacts. *)

val mkdir_p : string -> unit
(** Create a directory and any missing parents ([mkdir -p]); a directory
    that appears concurrently is not an error. [""], ["."] and ["/"] are
    no-ops. *)
