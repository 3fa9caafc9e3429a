let digest_len = 32 (* md5 hex *)
let digest_hex payload = Digest.to_hex (Digest.string payload)
let frame payload = digest_hex payload ^ " " ^ payload

let unframe line =
  let len = String.length line in
  if len < digest_len + 2 then Error "line too short for digest frame"
  else if line.[digest_len] <> ' ' then Error "missing digest separator"
  else
    let digest = String.sub line 0 digest_len in
    let hex = function '0' .. '9' | 'a' .. 'f' -> true | _ -> false in
    if not (String.for_all hex digest) then Error "digest is not lowercase hex"
    else
      let payload = String.sub line (digest_len + 1) (len - digest_len - 1) in
      if not (String.equal digest (digest_hex payload)) then Error "digest mismatch"
      else Ok payload
