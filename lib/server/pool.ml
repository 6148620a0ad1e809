type job = { label : string; run : unit -> unit }

type t = {
  mu : Mutex.t;
  nonempty : Condition.t;
  jobs : job Queue.t;
  max_queue : int;
  on_exn : (label:string -> exn -> unit) option;
  busy_ns : int Atomic.t array;  (* per-worker cumulative busy time *)
  mutable joins : (unit -> unit) array;
  mutable stopping : bool;
  mutable joined : bool;
}

(* Mutex and Condition synchronize across domains just as across
   threads, so both worker kinds share this loop. *)
let worker slot t =
  let busy = t.busy_ns.(slot) in
  let rec loop () =
    Mutex.lock t.mu;
    while Queue.is_empty t.jobs && not t.stopping do
      Condition.wait t.nonempty t.mu
    done;
    if Queue.is_empty t.jobs then (* stopping and drained: exit *)
      Mutex.unlock t.mu
    else begin
      let job = Queue.pop t.jobs in
      Mutex.unlock t.mu;
      let t0 = Unix.gettimeofday () in
      (* A raising job must not kill the worker, but it must not vanish
         either: report it so the service can count and log it. *)
      (try job.run ()
       with e -> (
         match t.on_exn with
         | Some f -> ( try f ~label:job.label e with _ -> ())
         | None -> ()));
      let dt_ns = int_of_float ((Unix.gettimeofday () -. t0) *. 1e9) in
      (* this slot's only writer is this worker; readers just sample *)
      Atomic.set busy (Atomic.get busy + dt_ns);
      loop ()
    end
  in
  loop ()

let create ?on_exn ~kind ~workers ~max_queue () =
  if workers < 1 then invalid_arg "Pool.create: workers < 1";
  if max_queue < 1 then invalid_arg "Pool.create: max_queue < 1";
  let t =
    {
      mu = Mutex.create ();
      nonempty = Condition.create ();
      jobs = Queue.create ();
      max_queue;
      on_exn;
      busy_ns = Array.init workers (fun _ -> Atomic.make 0);
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

let submit ?(label = "?") t run =
  Mutex.lock t.mu;
  let admitted =
    if t.stopping || Queue.length t.jobs >= t.max_queue then false
    else begin
      Queue.push { label; run } t.jobs;
      Condition.signal t.nonempty;
      true
    end
  in
  Mutex.unlock t.mu;
  admitted

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
  Condition.broadcast t.nonempty;
  let must_join = not t.joined in
  t.joined <- true;
  Mutex.unlock t.mu;
  if must_join then Array.iter (fun join -> join ()) t.joins
