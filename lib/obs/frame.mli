(** The md5 line frame shared by the daemon's job ledger ([ledger.wal])
    and the run-history ledger ([history.jsonl]). A framed record is one
    line:

    {v <md5-hex of payload> <payload> v}

    The digest checksums the payload, so a torn or damaged line is
    detected rather than misread. What a bad line means is the reader's
    policy: the job ledger trusts only the valid prefix, the history
    ledger skips and counts the line. *)

val frame : string -> string
(** [md5_hex payload ^ " " ^ payload], without a trailing newline. *)

val unframe : string -> (string, string) result
(** The payload of one framed line (no newline), or why the frame is
    bad: too short, missing separator, digest not lowercase hex, or
    digest mismatch. *)
