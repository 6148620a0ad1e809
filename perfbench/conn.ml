(* One client connection of the load generator.

   Every request carries a deadline.  Untraced, requests go through
   [Client.request_timeout]; traced, the benchmark composes the same four
   public protocol calls itself so each gets a span.  A timeout poisons the
   connection (a late reply would desynchronize the stream), so it is
   closed and the next request reconnects.  A deployment that refuses
   [max_connect_failures] reconnects in a row is declared dead. *)

open Perfbench_lib
module P = Rserver.Protocol
module C = Rserver.Client

exception Deployment_dead of string

type link = Plain of C.t | Raw of Unix.file_descr * in_channel * out_channel

(* A traced request as sent and answered, kept for the replay. *)
type call = {
  path : string;  (** socket it went to *)
  req : int;
  kind : string;
  request : P.request;
  reply : P.response option;  (** [None]: timeout or lost connection *)
  bytes : int;  (** reply payload length *)
  sent : float;
  replied : float;
}

type recorder = { mutable calls : call list; rmu : Mutex.t }

let recorder () = { calls = []; rmu = Mutex.create () }

let recorded r =
  List.sort (fun a b -> compare a.sent b.sent) r.calls

type tracing = { spans : Trace.t; calls : recorder }

type t = {
  path : string;
  timeout_ms : int;
  tracer : tracing option;
  mutable link : link option;
  mutable connect_failures : int;
  mutable n_calls : int;
}

type outcome = Reply of P.response * int | Failed of string

let max_connect_failures = 5

let create ?tracer ~timeout_ms path =
  { path; timeout_ms; tracer; link = None; connect_failures = 0; n_calls = 0 }

(* Traced connections sample the serving process's STATS every
   [sample_every] requests (control verbs bypass the admission queue). *)
let sample_every = 200

let samples : (string * (string * string) list) list ref = ref []
let samples_mu = Mutex.create ()

let close_link = function
  | Plain c -> C.close c
  | Raw (fd, _, _) -> (try Unix.close fd with Unix.Unix_error _ -> ())

let close t =
  Option.iter close_link t.link;
  t.link <- None

let connect t =
  match t.link with
  | Some l -> l
  | None -> (
    let attempt () =
      match t.tracer with
      | None -> Plain (C.connect t.path)
      | Some _ ->
        let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        (try Unix.connect fd (Unix.ADDR_UNIX t.path)
         with e -> Unix.close fd; raise e);
        Raw (fd, Unix.in_channel_of_descr fd, Unix.out_channel_of_descr fd)
    in
    match attempt () with
    | l ->
      t.connect_failures <- 0;
      t.link <- Some l;
      l
    | exception (Unix.Unix_error (e, _, _) as exn) ->
      t.connect_failures <- t.connect_failures + 1;
      if t.connect_failures >= max_connect_failures then
        raise
          (Deployment_dead
             (Printf.sprintf "%s: %s" t.path (Unix.error_message e)));
      raise exn)

(* Park until [fd] is readable or the deadline passes. *)
let wait_readable fd ~timeout_ms =
  let deadline = Unix.gettimeofday () +. (float_of_int timeout_ms /. 1000.) in
  let rec go () =
    let left = deadline -. Unix.gettimeofday () in
    if left <= 0. then raise C.Timeout
    else
      match Unix.select [ fd ] [] [] left with
      | [], _, _ -> raise C.Timeout
      | _ -> ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ()

let traced tr ~kind ~req ~timeout_ms (fd, ic, oc) request =
  let span ?parent name layer f =
    Trace.with_span tr ?parent ~name ~layer ~kind ~req f
  in
  span "request" "loadgen" @@ fun root ->
  let line =
    span ~parent:root "Protocol.request_to_string" "protocol"
      (fun _ -> P.request_to_string request)
  in
  span ~parent:root "Protocol.write_frame" "protocol" (fun _ ->
      P.write_frame oc line);
  span ~parent:root "reply wait" "wait" (fun _ ->
      wait_readable fd ~timeout_ms);
  let payload =
    span ~parent:root "Protocol.read_frame" "protocol" (fun _ ->
        P.read_frame ic)
  in
  match payload with
  | None -> raise End_of_file
  | Some p ->
    let r =
      span ~parent:root "Protocol.parse_response" "protocol" (fun _ ->
          P.parse_response p)
    in
    (r, String.length p)

(* Every [k=v] token of a STATS reply, in order (per-group lines repeat
   their keys). *)
let stats_tokens body =
  String.split_on_char '\n' body
  |> List.concat_map (String.split_on_char ' ')
  |> List.filter_map (fun tok ->
         match String.index_opt tok '=' with
         | Some i ->
           Some (String.sub tok 0 i, String.sub tok (i + 1) (String.length tok - i - 1))
         | None -> None)

(* Send one request; never raises except [Deployment_dead]. *)
let rec call t ?(kind = "") ?(req = 0) request =
  t.n_calls <- t.n_calls + 1;
  (match t.tracer with
  | Some _ when t.n_calls mod sample_every = 0 -> sample_stats t
  | _ -> ());
  let sent = Unix.gettimeofday () in
  let out = call_untracked t ~kind ~req request in
  (match t.tracer with
  | Some tr ->
    let reply, bytes =
      match out with Reply (r, b) -> (Some r, b) | Failed _ -> (None, 0)
    in
    let c =
      { path = t.path; req; kind; request; reply; bytes; sent;
        replied = Unix.gettimeofday () }
    in
    Mutex.lock tr.calls.rmu;
    tr.calls.calls <- c :: tr.calls.calls;
    Mutex.unlock tr.calls.rmu
  | None -> ());
  out

and sample_stats t =
  match call_untracked t ~kind:"STATS" ~req:0 P.Stats with
  | Reply (P.Ok_ body, _) ->
    let toks = stats_tokens body in
    Mutex.lock samples_mu;
    samples := (t.path, toks) :: !samples;
    Mutex.unlock samples_mu
  | _ -> ()

and call_untracked t ~kind ~req request =
  match connect t with
  | exception Unix.Unix_error (e, _, _) ->
    Failed ("connect: " ^ Unix.error_message e)
  | link -> (
    match
      match link, t.tracer with
      | Plain c, _ -> (C.request_timeout c ~timeout_ms:t.timeout_ms request, 0)
      | Raw (fd, ic, oc), Some tr ->
        traced tr.spans ~kind ~req ~timeout_ms:t.timeout_ms (fd, ic, oc) request
      | Raw _, None -> assert false
    with
    | r, bytes -> Reply (r, bytes)
    | exception C.Timeout ->
      close t;
      Failed "timeout"
    | exception (End_of_file | P.Protocol_error _ | Sys_error _) ->
      close t;
      Failed "connection lost"
    | exception Unix.Unix_error (e, _, _) ->
      close t;
      Failed (Unix.error_message e))

(* [kv body key] — reply token lookup. *)
let kv = C.kv
let kv_int = C.kv_int

let ok_body = function
  | Reply (P.Ok_ body, _) -> Some body
  | _ -> None

let describe = function
  | Reply (P.Ok_ b, _) -> "OK " ^ b
  | Reply (P.Err m, _) -> "ERR " ^ m
  | Reply (P.Busy m, _) -> "BUSY " ^ m
  | Failed why -> why
