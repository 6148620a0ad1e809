(** Admission-controlled worker pool: a bounded FIFO of jobs drained by a
    fixed set of workers — systhreads or OCaml 5 domains.

    The bound is the service's overload valve: {!submit} never blocks and
    never queues beyond [max_queue] — callers get an immediate [false] and
    reply [BUSY], so latency stays bounded instead of collapsing under a
    growing queue (the classic accept-everything failure mode).

    [`Threads] workers all share the main domain: right for the write path
    (the WAL and the group write mutex) and for reads on a single-domain
    configuration.  Handing a job to one of them buys no parallelism, so
    such a pool bounds concurrency with [workers] slots instead: a
    submitter that finds a slot free and nobody queued runs the job
    itself ({!run_or_submit}), and workers serve only the overflow.
    [`Domains] workers each run on a real {!Domain.t}, so the paper's
    reads — ruid parent derivation, axis checks, query evaluation over
    immutable snapshot state — run in parallel on separate cores; their
    jobs are always handed off.  Jobs on a domain pool must only touch
    state that is safe to read from another domain: in the service, the
    published {!Snapshot.t}, the mutex-protected metrics registry and the
    sharded {!Query_cache}.

    Jobs are thunks; the pool knows nothing about the protocol.  Deadlines
    are the caller's business ({!Listener} checks them when a job reaches
    a worker). *)

type t

val create :
  ?on_exn:(label:string -> exn -> unit) -> kind:[ `Threads | `Domains ] ->
  workers:int -> max_queue:int -> unit -> t
(** Spawn [workers] workers of the given kind.  [on_exn] receives (on the
    worker) every exception escaping a job, with the label the job was
    submitted under — the service wires it to the metrics
    dropped-exception counter.  Exceptions raised by [on_exn] itself are
    discarded (the worker must survive).  Without it, escaping exceptions
    are swallowed.
    @raise Invalid_argument if [workers < 1] or [max_queue < 1]. *)

val submit : ?label:string -> t -> (unit -> unit) -> bool
(** Enqueue a job, or return [false] without side effects when the queue
    is at capacity or the pool is shutting down.  A job should not raise:
    an escaping exception kills nothing (the worker survives and the
    occurrence is reported through [on_exn]) but the job's requester would
    wait forever — {!Listener} wraps every job in its own guard.
    [label] names the job in exception reports (the protocol verb). *)

val run_or_submit :
  ?label:string -> t -> (unit -> unit) -> [ `Ran | `Queued | `Refused ]
(** On a [`Threads] pool with a free slot and an empty queue, run the job
    on the calling thread, holding the slot until it returns: [`Ran].
    Otherwise {!submit}: [`Queued] or [`Refused].  A [`Domains] pool never
    runs a job on its caller.  Either way at most [workers] jobs run at
    once — workers take a queued job only while a slot is free.  An
    exception escaping an inline job goes to [on_exn], as on a worker. *)

val queue_depth : t -> int
val workers : t -> int

val busy_seconds : t -> float array
(** Cumulative seconds each worker spent running jobs (jobs run inline by
    {!run_or_submit} are not counted) — the per-domain busy-time gauge
    behind [STATS]. *)

val shutdown : t -> unit
(** Stop admitting, let the workers drain every job already admitted, then
    join them.  Idempotent; safe to call from any thread except a
    worker. *)
