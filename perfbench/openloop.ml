(* Open-loop accounting.

   A fixed-rate stream has a due time per request.  Latency runs from the
   due time, not from the send, so a stall also charges the requests it
   delayed (no coordinated omission).  One connection carries one request
   at a time, so a request can only be sent once it is due {e and} the
   previous reply is in; any delay past that point is the generator's own
   lateness, which invalidates the run ({!kept_schedule}) instead of
   counting as a slow system. *)

type sample = {
  due : float;
  sent : float;
  replied : float;
  ok : bool;  (** answered correctly, without ERR/BUSY/timeout *)
}

let latency s = s.replied -. s.due

(* Lateness of each sample on one connection, in send order: the time it
   was sent past the moment it could have been. *)
let lateness samples =
  let prev = ref neg_infinity in
  List.map
    (fun s ->
      let ready = Float.max s.due !prev in
      prev := s.replied;
      Float.max 0. (s.sent -. ready))
    samples

(* Whether a stream kept its schedule: the p90 of its lateness (or the
   highest percentile its samples support, see {!Pstats.at_most}) stays
   within [limit] times the interval between its requests.  The rule
   judges the p90, not the tail: the host of a shared virtual machine
   preempts the generator now and then, which makes a few requests late
   without the generator falling behind, while a generator too slow for
   its rate is late on most of them.  [Error (p, v)] names the percentile
   and its lateness, in seconds, when it did not; too few samples to judge
   count as kept. *)
let kept_schedule ~limit ~interval samples =
  match Pstats.at_most (Array.of_list (lateness samples)) 0.9 with
  | Some (p, v) when v > limit *. interval -> Error (p, v)
  | Some _ | None -> Ok ()

(* Due times of a stream at [rate] per second starting at [t0], shifted by
   [phase] intervals (two connections sharing one rate interleave at
   phase 0 and 0.5). *)
let due ~t0 ~rate ~phase i = t0 +. ((float_of_int i +. phase) /. rate)

(* Sleep until [t]; returns immediately when [t] has passed. *)
let rec wait_until t =
  let d = t -. Unix.gettimeofday () in
  if d > 0. then begin
    (try Unix.sleepf d with Unix.Unix_error (Unix.EINTR, _, _) -> ());
    wait_until t
  end
