type job = { label : string; run : unit -> unit }

type t = {
  kind : [ `Threads | `Domains ];
  mu : Mutex.t;
  ready : Condition.t;  (* a job arrived, a slot freed, or stopping *)
  jobs : job Queue.t;
  max_queue : int;
  on_exn : (label:string -> exn -> unit) option;
  busy_ns : int Atomic.t array;  (* per-worker cumulative busy time *)
  mutable running : int;  (* slots held: jobs running, inline or on a worker *)
  mutable joins : (unit -> unit) array;
  mutable stopping : bool;
  mutable joined : bool;
}

(* A raising job must not kill its thread, but it must not vanish either:
   report it so the service can count and log it. *)
let run_job t job =
  try job.run ()
  with e -> (
    match t.on_exn with
    | Some f -> ( try f ~label:job.label e with _ -> ())
    | None -> ())

let release_slot t =
  Mutex.lock t.mu;
  t.running <- t.running - 1;
  Condition.signal t.ready;
  Mutex.unlock t.mu

(* Mutex and Condition synchronize across domains just as across
   threads, so both worker kinds share this loop.  A worker takes a job
   only while a slot is free: on a [`Threads] pool the slots are shared
   with jobs the submitters run themselves ({!run_or_submit}). *)
let worker slot t =
  let busy = t.busy_ns.(slot) in
  let rec loop () =
    Mutex.lock t.mu;
    while
      if Queue.is_empty t.jobs then not t.stopping
      else t.running >= Array.length t.busy_ns
    do
      Condition.wait t.ready t.mu
    done;
    if Queue.is_empty t.jobs then (* stopping and drained: exit *)
      Mutex.unlock t.mu
    else begin
      let job = Queue.pop t.jobs in
      t.running <- t.running + 1;
      Mutex.unlock t.mu;
      let t0 = Unix.gettimeofday () in
      run_job t job;
      let dt_ns = int_of_float ((Unix.gettimeofday () -. t0) *. 1e9) in
      (* this slot's only writer is this worker; readers just sample *)
      Atomic.set busy (Atomic.get busy + dt_ns);
      release_slot t;
      loop ()
    end
  in
  loop ()

let create ?on_exn ~kind ~workers ~max_queue () =
  if workers < 1 then invalid_arg "Pool.create: workers < 1";
  if max_queue < 1 then invalid_arg "Pool.create: max_queue < 1";
  let t =
    {
      kind;
      mu = Mutex.create ();
      ready = Condition.create ();
      jobs = Queue.create ();
      max_queue;
      on_exn;
      busy_ns = Array.init workers (fun _ -> Atomic.make 0);
      running = 0;
      joins = [||];
      stopping = false;
      joined = false;
    }
  in
  t.joins <-
    Array.init workers (fun slot ->
        match kind with
        | `Threads ->
          let th = Thread.create (worker slot) t in
          fun () -> Thread.join th
        | `Domains ->
          let d = Domain.spawn (fun () -> worker slot t) in
          fun () -> Domain.join d);
  t

let enqueue t job =
  if t.stopping || Queue.length t.jobs >= t.max_queue then false
  else begin
    Queue.push job t.jobs;
    Condition.signal t.ready;
    true
  end

let submit ?(label = "?") t run =
  Mutex.lock t.mu;
  let admitted = enqueue t { label; run } in
  Mutex.unlock t.mu;
  admitted

let run_or_submit ?(label = "?") t run =
  let job = { label; run } in
  Mutex.lock t.mu;
  let outcome =
    if
      t.kind = `Threads && (not t.stopping) && Queue.is_empty t.jobs
      && t.running < Array.length t.busy_ns
    then begin
      t.running <- t.running + 1;
      `Ran
    end
    else if enqueue t job then `Queued
    else `Refused
  in
  Mutex.unlock t.mu;
  if outcome = `Ran then begin
    run_job t job;
    release_slot t
  end;
  outcome

let queue_depth t =
  Mutex.lock t.mu;
  let n = Queue.length t.jobs in
  Mutex.unlock t.mu;
  n

let workers t = Array.length t.busy_ns

let busy_seconds t =
  Array.map (fun a -> float_of_int (Atomic.get a) /. 1e9) t.busy_ns

let shutdown t =
  Mutex.lock t.mu;
  t.stopping <- true;
  Condition.broadcast t.ready;
  let must_join = not t.joined in
  t.joined <- true;
  Mutex.unlock t.mu;
  if must_join then Array.iter (fun join -> join ()) t.joins
