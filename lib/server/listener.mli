(** The socket front end every serving role runs on: {!Service} (a
    primary or a follower) and {!Router} each supply a verb handler and a
    teardown, and this module does everything they do the same way.

    - {b The socket.}  Path validation ({!check_socket_path}), SIGPIPE
      ignored, bind and listen; an accept thread, a session table, one
      thread per session.
    - {b The frame loop.}  Each frame is parsed (an unparsable one is
      answered [ERR] and counted as verb [INVALID]), handled, answered,
      and accounted with {!Metrics.record}, timed from frame decode to
      reply write.  A peer that drops mid-frame or before reading its
      reply ends its session alone and ticks
      {!Metrics.record_session_error}.
    - {b The node verbs.}  [PING], [STATS] (the metrics registry's
      render) and [SHUTDOWN] (reply first, then {!request_stop}) are
      answered here, never queued, so a node stays observable and
      stoppable when its queues are saturated.  Every other verb goes to
      the role's handler.
    - {b One exception guard} around every handler call, inline or
      queued: [Failure m] answers [ERR m], anything else
      [ERR internal error: ...]; the session carries on.
    - {b Admission} for queued verbs, through {!Pool.run_or_submit}: a
      systhread pool with a free slot runs the verb on the session
      thread; otherwise it waits in the pool's queue.  A pool that
      refuses the job answers [BUSY queue full]; a job that starts past
      the configured deadline answers [BUSY deadline exceeded in
      queue].
    - {b The lifecycle}: {!running}, {!wait}, {!request_stop} and an
      idempotent {!stop}. *)

(** One-shot synchronization cell: a session parks on it while a pool
    worker (or a commit pipeline) computes its reply. *)
module Ivar : sig
  type 'a t

  val create : unit -> 'a t
  val fill : 'a t -> 'a -> unit
  (** Set the value once; a cell already filled keeps its first value. *)

  val read : 'a t -> 'a
  (** Block until filled. *)
end

(** What the role's handler answers a request with.  The handler itself
    only picks; the work is the thunk, which runs under the guard. *)
type action =
  | Inline of (unit -> Protocol.response)
      (** run on the session thread, bypassing admission *)
  | Queued of Pool.t * (unit -> Protocol.response)
      (** run under the pool's admission, subject to its bound and the
          deadline: on the session thread when a systhread slot is free,
          else on a worker while the session parks until the reply is
          ready *)

val check_socket_path : string -> (unit, string) result
(** Non-empty, and at most 100 bytes (the portable [sockaddr_un] limit).
    Every role's [validate_config] calls it. *)

type t

val create : ?deadline_ms:int -> metrics:Metrics.t -> string -> t
(** [create ~metrics socket_path] validates the path, ignores SIGPIPE,
    replaces any stale socket file, binds and listens.  Nothing is
    accepted until {!serve}.  [deadline_ms] (0, the default, disables)
    bounds how long a queued request may wait for a worker, counted from
    frame decode.  Requests are accounted in [metrics].
    @raise Invalid_argument on a bad path.
    @raise Unix.Unix_error when the socket cannot be bound. *)

val serve :
  t -> teardown:(unit -> unit) -> (Protocol.request -> action) -> unit
(** Start accepting: every request other than the node verbs goes to the
    handler.  [teardown] is the role's part of {!stop}, run once every
    session is joined. *)

val running : t -> bool
(** [false] as soon as a stop has begun. *)

val stop : t -> unit
(** Graceful shutdown: wake the parked [accept] with a self-connection,
    shut down the read side of each session (it sees EOF after its
    in-flight reply) and join every session thread, run the role's
    teardown, remove the socket file.  Idempotent; concurrent callers all
    return once the first has finished.  Callable before {!serve}. *)

val request_stop : t -> unit
(** {!stop} on a fresh thread: what a session thread (which {!stop}
    joins) calls. *)

val wait : t -> unit
(** Block until a {!stop} completes. *)
