type record = {
  ts : float;
  kind : string;
  label : string;
  config_digest : string;
  metrics : (string * float) list;
}

let make ?ts ~kind ~label ~config_digest metrics =
  let ts = match ts with Some ts -> ts | None -> Clock.wall () in
  let metrics =
    List.sort_uniq (fun (a, _) (b, _) -> compare a b) metrics
  in
  { ts; kind; label; config_digest; metrics }

(* ---------------- Rendering ---------------- *)

let escape_json buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let json_number f = if Float.is_finite f then Metrics.float_repr f else "0"

let render r =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "{\"ts\":";
  Buffer.add_string buf (json_number r.ts);
  Buffer.add_string buf ",\"kind\":";
  escape_json buf r.kind;
  Buffer.add_string buf ",\"label\":";
  escape_json buf r.label;
  Buffer.add_string buf ",\"config_digest\":";
  escape_json buf r.config_digest;
  Buffer.add_string buf ",\"metrics\":{";
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_char buf ',';
      escape_json buf k;
      Buffer.add_char buf ':';
      Buffer.add_string buf (json_number v))
    r.metrics;
  Buffer.add_string buf "}}";
  Buffer.contents buf

(* ---------------- Parsing ----------------

   The payload grammar is the fixed shape [render] emits: one object of
   scalars plus one nested object of numbers. A minimal recursive
   scanner is enough — pi_obs cannot depend on pi_campaign's hardened
   Telemetry parser without inverting the dependency arrow. *)

exception Bad of string

type jv = S of string | N of float | O of (string * jv) list

let parse_payload_exn s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Bad msg) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let skip_ws () =
    while !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false) do
      advance ()
    done
  in
  let expect c =
    skip_ws ();
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected %C at %d" c !pos)
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec loop () =
      if !pos >= n then fail "unterminated string";
      let c = s.[!pos] in
      advance ();
      if c = '"' then Buffer.contents buf
      else if c = '\\' then begin
        if !pos >= n then fail "unterminated escape";
        let e = s.[!pos] in
        advance ();
        (match e with
        | '"' -> Buffer.add_char buf '"'
        | '\\' -> Buffer.add_char buf '\\'
        | '/' -> Buffer.add_char buf '/'
        | 'n' -> Buffer.add_char buf '\n'
        | 'r' -> Buffer.add_char buf '\r'
        | 't' -> Buffer.add_char buf '\t'
        | 'b' -> Buffer.add_char buf '\b'
        | 'f' -> Buffer.add_char buf '\012'
        | 'u' ->
            if !pos + 4 > n then fail "truncated \\u escape";
            let hex = String.sub s !pos 4 in
            pos := !pos + 4;
            let code =
              try int_of_string ("0x" ^ hex) with _ -> fail "bad \\u escape"
            in
            (* Records only ever escape control characters; anything in
               the BMP below 0x80 round-trips, the rest degrades to '?'. *)
            if code < 0x80 then Buffer.add_char buf (Char.chr code)
            else Buffer.add_char buf '?'
        | _ -> fail "bad escape");
        loop ()
      end
      else begin
        Buffer.add_char buf c;
        loop ()
      end
    in
    loop ()
  in
  let parse_number () =
    skip_ws ();
    let start = !pos in
    while
      !pos < n
      && match s.[!pos] with '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false
    do
      advance ()
    done;
    if !pos = start then fail (Printf.sprintf "expected number at %d" start);
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f -> f
    | None -> fail "bad number"
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | Some '"' -> S (parse_string ())
    | Some '{' -> O (parse_object ())
    | Some _ -> N (parse_number ())
    | None -> fail "unexpected end of input"
  and parse_object () =
    expect '{';
    skip_ws ();
    if peek () = Some '}' then begin
      advance ();
      []
    end
    else begin
      let rec fields acc =
        let key = (skip_ws (); parse_string ()) in
        expect ':';
        let v = parse_value () in
        skip_ws ();
        match peek () with
        | Some ',' ->
            advance ();
            fields ((key, v) :: acc)
        | Some '}' ->
            advance ();
            List.rev ((key, v) :: acc)
        | _ -> fail "expected ',' or '}'"
      in
      fields []
    end
  in
  let v = parse_object () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

let parse_payload payload =
  match parse_payload_exn payload with
  | exception Bad msg -> Error msg
  | fields ->
      let str key =
        match List.assoc_opt key fields with
        | Some (S s) -> Ok s
        | Some _ -> Error (Printf.sprintf "field %S is not a string" key)
        | None -> Error (Printf.sprintf "missing field %S" key)
      in
      let num key =
        match List.assoc_opt key fields with
        | Some (N f) -> Ok f
        | Some _ -> Error (Printf.sprintf "field %S is not a number" key)
        | None -> Error (Printf.sprintf "missing field %S" key)
      in
      let ( let* ) = Result.bind in
      let* ts = num "ts" in
      let* kind = str "kind" in
      let* label = str "label" in
      let* config_digest = str "config_digest" in
      let* metrics =
        match List.assoc_opt "metrics" fields with
        | Some (O ms) ->
            let rec collect acc = function
              | [] -> Ok (List.rev acc)
              | (k, N f) :: rest -> collect ((k, f) :: acc) rest
              | (k, _) :: _ -> Error (Printf.sprintf "metric %S is not a number" k)
            in
            collect [] ms
        | Some _ -> Error "field \"metrics\" is not an object"
        | None -> Error "missing field \"metrics\""
      in
      Ok { ts; kind; label; config_digest; metrics }

(* ---------------- Digest framing ----------------

   The serve WAL's frame ({!Frame}), one record per line. Unlike the WAL —
   whose records form a causal sequence, so everything after the first bad
   record is suspect — history records are independent observations: a
   bad line is skipped and counted, the rest still load. Only the torn
   (unterminated) tail is silently expected, from a crash mid-append. *)

let frame = Frame.frame
let parse_record line = Result.bind (Frame.unframe line) parse_payload

type replay = { records : record list; invalid_lines : int; torn_tail : bool }

let read ~path =
  if not (Sys.file_exists path) then
    { records = []; invalid_lines = 0; torn_tail = false }
  else begin
    let ic = open_in_bin path in
    let content =
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    in
    let len = String.length content in
    let torn_tail = len > 0 && content.[len - 1] <> '\n' in
    let body =
      if not torn_tail then content
      else
        match String.rindex_opt content '\n' with
        | Some i -> String.sub content 0 (i + 1)
        | None -> ""
    in
    let lines = String.split_on_char '\n' body in
    let records, invalid =
      List.fold_left
        (fun (acc, bad) line ->
          if line = "" then (acc, bad)
          else
            match parse_record line with
            | Ok r -> (r :: acc, bad)
            | Error _ -> (acc, bad + 1))
        ([], 0) lines
    in
    { records = List.rev records; invalid_lines = invalid; torn_tail }
  end

let append ~path r =
  Fs.mkdir_p (Filename.dirname path);
  (* O_RDWR, not O_WRONLY: the torn-tail probe below reads the last byte
     back through this same descriptor. O_APPEND keeps every write at the
     end regardless of where the probe leaves the offset. *)
  let fd = Unix.openfile path [ Unix.O_RDWR; Unix.O_CREAT; Unix.O_APPEND ] 0o644 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      (* Self-heal a torn tail: if the previous append died mid-line,
         start this record on a fresh line so it frames cleanly; the
         torn fragment becomes one invalid line that [read] skips. *)
      let size = (Unix.fstat fd).Unix.st_size in
      let needs_newline =
        size > 0
        &&
        let buf = Bytes.create 1 in
        ignore (Unix.lseek fd (size - 1) Unix.SEEK_SET);
        let n = Unix.read fd buf 0 1 in
        ignore (Unix.lseek fd 0 Unix.SEEK_END);
        n = 1 && Bytes.get buf 0 <> '\n'
      in
      let line =
        (if needs_newline then "\n" else "") ^ frame (render r) ^ "\n"
      in
      let bytes = Bytes.of_string line in
      let total = Bytes.length bytes in
      let written = ref 0 in
      while !written < total do
        written := !written + Unix.write fd bytes !written (total - !written)
      done;
      Unix.fsync fd)

(* ---------------- Regression comparison ---------------- *)

type direction = Higher_better | Lower_better

type rule = { suffix : string; direction : direction; tol_percent : float }

let default_rules =
  [
    { suffix = "_per_sec"; direction = Higher_better; tol_percent = 50.0 };
    { suffix = "speedup"; direction = Higher_better; tol_percent = 50.0 };
    { suffix = "r_squared"; direction = Higher_better; tol_percent = 5.0 };
    { suffix = "failed_jobs"; direction = Lower_better; tol_percent = 0.0 };
    (* Surrogate accuracy metrics (steered sweeps, PR-10): prediction
       errors are lower-better, and they live near zero, so relative
       jitter is large — only a doubling trips the gate. *)
    { suffix = "_abs_err"; direction = Lower_better; tol_percent = 100.0 };
    { suffix = "_max_err"; direction = Lower_better; tol_percent = 100.0 };
  ]

let rule_for rules metric =
  List.find_opt
    (fun r ->
      let ls = String.length r.suffix and lm = String.length metric in
      lm >= ls && String.equal (String.sub metric (lm - ls) ls) r.suffix)
    rules

type delta = {
  metric : string;
  before : float;
  after : float;
  delta_percent : float;
  rule : rule option;
  regression : bool;
}

let compare_metrics ?(rules = default_rules) ~before ~after () =
  List.filter_map
    (fun (name, b) ->
      match List.assoc_opt name after with
      | None -> None
      | Some a ->
          let delta_percent =
            if b = 0.0 then if a = 0.0 then 0.0 else Float.infinity *. (if a > 0.0 then 1.0 else -1.0)
            else (a -. b) /. Float.abs b *. 100.0
          in
          let rule = rule_for rules name in
          let regression =
            match rule with
            | None -> false
            | Some r -> (
                match r.direction with
                | Higher_better ->
                    (* A throughput gate needs both sides live: a zero
                       side means "didn't run" (e.g. a fully-cached
                       campaign computed nothing), not a regression. *)
                    b > 0.0 && a > 0.0 && delta_percent < -.r.tol_percent
                | Lower_better -> delta_percent > r.tol_percent)
          in
          Some { metric = name; before = b; after = a; delta_percent; rule; regression })
    before

let regressions deltas = List.filter (fun d -> d.regression) deltas
