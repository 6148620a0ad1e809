type t = { fd : Unix.file_descr; ic : in_channel; oc : out_channel }

let connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.connect fd (Unix.ADDR_UNIX path)
   with e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     raise e);
  { fd; ic = Unix.in_channel_of_descr fd; oc = Unix.out_channel_of_descr fd }

let send_raw t line = Protocol.write_frame t.oc line
let send t req = send_raw t (Protocol.request_to_string req)

let receive t =
  match Protocol.read_frame t.ic with
  | Some payload -> Protocol.parse_response payload
  | None -> raise End_of_file

let request_raw t line =
  send_raw t line;
  receive t

let request t req = request_raw t (Protocol.request_to_string req)

(* Park on readability rather than in a blocking read.  With at most one
   request outstanding per connection, nothing is left in its input
   buffer between replies, so a readable socket is the start of the next
   reply, or the peer hanging up. *)
let wait_readable ts ~until =
  let rec go () =
    let timeout =
      if until = infinity then -1.
      else Float.max 0. (until -. Unix.gettimeofday ())
    in
    match Unix.select (List.map (fun t -> t.fd) ts) [] [] timeout with
    | ready, _, _ -> List.filter (fun t -> List.memq t.fd ready) ts
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  if ts = [] then [] else go ()

exception Timeout

(* On expiry the connection is poisoned (the reply may still arrive and
   would desynchronize the stream), so the caller must close it. *)
let request_timeout t ~timeout_ms req =
  send t req;
  if timeout_ms > 0 then begin
    let until = Unix.gettimeofday () +. (float_of_int timeout_ms /. 1000.) in
    if wait_readable [ t ] ~until = [] then raise Timeout
  end;
  receive t

let close t =
  (try flush t.oc with Sys_error _ -> ());
  try Unix.close t.fd with Unix.Unix_error _ -> ()

let with_connection path f =
  let t = connect path in
  Fun.protect ~finally:(fun () -> close t) (fun () -> f t)

(* --- Bounded retry with exponential backoff and jitter -------------

   Two transient conditions are worth retrying: BUSY replies (the
   admission queue was momentarily full) and connect failures against a
   socket that is about to exist (server still booting, or failing over).
   Everything else — ERR, protocol violations, a peer that hangs up —
   stays fatal: retrying can't fix it.  Retries are opt-in; the defaults
   keep every existing caller one-shot. *)

let default_retry_budget_ms = 2_000

(* Jitter source; self-seeded once.  Retry timing is the one place where
   determinism is a bug: synchronized clients retrying in lockstep re-create
   the very burst that made the server BUSY. *)
let retry_rng = lazy (Random.State.make_self_init ())

(* Delay before retry [attempt] (0-based): exponential from 10 ms, capped
   at 500 ms, scaled by a uniform factor in [0.5, 1.0], and never more
   than the remaining budget. *)
let backoff_ms ~attempt ~budget_left =
  let base = min 500 (10 * (1 lsl min attempt 6)) in
  let jittered =
    ((base + 1) / 2) + Random.State.int (Lazy.force retry_rng) ((base / 2) + 1)
  in
  max 0 (min jittered budget_left)

let transient_connect_error = function
  | Unix.Unix_error
      ( ( Unix.ECONNREFUSED | Unix.ENOENT | Unix.ECONNRESET | Unix.EAGAIN
        | Unix.EINTR ),
        _, _ ) ->
    true
  | _ -> false

let connect_retry ?(retries = 0) ?(budget_ms = default_retry_budget_ms) path =
  let rec go attempt budget_left =
    match connect path with
    | t -> t
    | exception e
      when attempt < retries && budget_left > 0 && transient_connect_error e ->
      let ms = backoff_ms ~attempt ~budget_left in
      Thread.delay (float_of_int ms /. 1000.);
      go (attempt + 1) (budget_left - ms)
  in
  go 0 budget_ms

let request_raw_retry ?(retries = 0) ?(budget_ms = default_retry_budget_ms) t
    line =
  let rec go attempt budget_left =
    match request_raw t line with
    | Protocol.Busy _ as r
      when attempt >= retries || budget_left <= 0 -> r
    | Protocol.Busy _ ->
      let ms = backoff_ms ~attempt ~budget_left in
      Thread.delay (float_of_int ms /. 1000.);
      go (attempt + 1) (budget_left - ms)
    | r -> r
  in
  go 0 budget_ms

let request_retry ?retries ?budget_ms t req =
  request_raw_retry ?retries ?budget_ms t (Protocol.request_to_string req)

(* Ship a document from disk without ever holding it in memory: one
   ADDDOC frame when it fits, else an ordered ADDCHUNK sequence feeding
   the shard's spool.  [one_shot_cap] mirrors the frame arithmetic of
   [Protocol.request_to_string]: "ADDDOC <doc>\n" is 8 bytes + the name. *)
let add_doc_file ?retries ?budget_ms ?chunk t ~doc path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
  let size = in_channel_length ic in
  let one_shot_cap = Protocol.max_frame - (String.length doc + 8) in
  if size <= one_shot_cap then
    let xml = really_input_string ic size in
    request_retry ?retries ?budget_ms t (Protocol.Add_doc { doc; xml })
  else begin
    (* "ADDCHUNK <doc> <off> <0|1>\n" — 32 bytes covers verb, flags and
       any offset the frame cap allows *)
    let cap = Protocol.max_frame - (String.length doc + 32) in
    let chunk =
      match chunk with Some c -> max 1 (min c cap) | None -> cap
    in
    let buf = Bytes.create chunk in
    let rec go off =
      let n = input ic buf 0 chunk in
      let last = n = 0 || off + n >= size in
      let bytes = Bytes.sub_string buf 0 n in
      match
        request_retry ?retries ?budget_ms t
          (Protocol.Add_chunk { doc; off; last; bytes })
      with
      | Protocol.Ok_ _ as r -> if last then r else go (off + n)
      | r -> r
    in
    go 0
  end

let kv body key =
  let tokens =
    String.split_on_char '\n' body
    |> List.concat_map (String.split_on_char ' ')
  in
  let prefix = key ^ "=" in
  let plen = String.length prefix in
  List.find_map
    (fun tok ->
      if String.length tok > plen && String.sub tok 0 plen = prefix then
        Some (String.sub tok plen (String.length tok - plen))
      else None)
    tokens

let kv_int body key = Option.bind (kv body key) int_of_string_opt
