(** Blocking client for the document service: one connection, one request
    in flight (the service replies in order, so that is the protocol's
    natural discipline).  Used by [ruidtool client], the loopback tests
    and the E13 bench driver. *)

type t

val connect : string -> t
(** Connect to the service's Unix socket.
    @raise Unix.Unix_error when nothing listens there. *)

val request : t -> Protocol.request -> Protocol.response
val request_raw : t -> string -> Protocol.response
(** Send one already-rendered request line.
    @raise Protocol.Protocol_error on a framing violation;
    @raise End_of_file if the server hung up before replying. *)

exception Timeout

val request_timeout : t -> timeout_ms:int -> Protocol.request -> Protocol.response
(** {!request} with a deadline on the {e reply arriving}: parks on socket
    readability for at most [timeout_ms] (0 = wait forever).
    @raise Timeout on expiry — the connection is then poisoned (a late
    reply would desynchronize the request/reply stream) and must be
    closed. *)

(** {2 The pieces of a request}

    [request] is {!send} then {!receive}; {!request_timeout} waits with
    {!wait_readable} in between.  A caller holding several connections —
    the router's scatter — sends on each, waits on all of them at once
    and receives as replies land.  At most one request may be outstanding
    per connection. *)

val send : t -> Protocol.request -> unit
val send_raw : t -> string -> unit
(** Write one request frame and flush it. *)

val wait_readable : t list -> until:float -> t list
(** Block until a reply can be read on at least one of the connections,
    or the absolute time [until] (as {!Unix.gettimeofday}; [infinity]
    waits forever) passes; return the readable ones, [[]] on expiry.  A
    reply already waiting is returned even when [until] has passed. *)

val receive : t -> Protocol.response
(** Read one reply.
    @raise Protocol.Protocol_error on a framing violation;
    @raise End_of_file if the server hung up. *)

val close : t -> unit

val with_connection : string -> (t -> 'a) -> 'a
(** Connect, run, close (also on exceptions). *)

(** {1 Bounded retry}

    Opt-in retries for the two transient conditions: BUSY replies and
    connect failures against a socket that is about to exist (server
    booting, failover in progress).  Backoff is exponential from 10 ms,
    capped at 500 ms per sleep, with uniform jitter in [0.5, 1.0] of the
    nominal delay — synchronized retries would re-create the burst that
    made the server BUSY.  Total sleeping never exceeds [budget_ms].
    The defaults ([retries = 0]) keep every call one-shot. *)

val default_retry_budget_ms : int
(** 2000. *)

val connect_retry : ?retries:int -> ?budget_ms:int -> string -> t
(** {!connect}, retrying transient failures (ECONNREFUSED, ENOENT,
    ECONNRESET, EAGAIN, EINTR) up to [retries] times within [budget_ms]
    of cumulative backoff.
    @raise Unix.Unix_error when the attempts are exhausted. *)

val request_retry :
  ?retries:int -> ?budget_ms:int -> t -> Protocol.request -> Protocol.response
(** {!request}, re-sending after a BUSY reply up to [retries] times within
    [budget_ms].  Non-BUSY responses return immediately. *)

val request_raw_retry :
  ?retries:int -> ?budget_ms:int -> t -> string -> Protocol.response
(** {!request_raw} with the same BUSY retry policy. *)

(** {1 Streaming ingest} *)

val add_doc_file :
  ?retries:int ->
  ?budget_ms:int ->
  ?chunk:int ->
  t ->
  doc:string ->
  string ->
  Protocol.response
(** [add_doc_file t ~doc path] ships the file at [path] as document
    [doc] without ever materializing it in client memory: a single
    [ADDDOC] frame when the file fits under {!Protocol.max_frame}, else
    an ordered [ADDCHUNK] sequence ([chunk] bytes per frame, default the
    largest that fits) that the shard spools and ingests in one
    streaming pass on the committing chunk.  Returns the first non-OK
    response, or the committing chunk's
    [OK doc=<name> nodes=<n> v=<version>].  The retry knobs are those of
    {!request_retry}, applied per frame. *)

(** {1 Reply token helpers} *)

val kv : string -> string -> string option
(** [kv body key] finds the first [key=value] token in a reply body
    (tokens split on blanks and newlines). *)

val kv_int : string -> string -> int option
