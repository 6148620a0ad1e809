(* Follower lag.

   Every acknowledged update carries the primary's version [v]; every
   follower reply carries the follower's [v], which counts the updates it
   has applied (version 1 is the startup snapshot and each update adds
   one).  An update counts as applied on the follower at the first
   follower reply whose [v] reaches the update's version; its lag runs
   from its ack to that reply, and is 0 when the follower showed it before
   the ack arrived.  The resolution is the follower read interval. *)

(* [lags ~acks ~replies]: [acks] are (version, ack time); [replies] are
   (reply time, follower version) in any order.  Returns the lag of every
   matched ack, in the order of [acks], and the number never matched. *)
let lags ~acks ~replies =
  let r = Array.of_list replies in
  Array.sort (fun (a, _) (b, _) -> compare a b) r;
  (* running maximum: the follower version seen by each reply time *)
  let best = Array.make (Array.length r) 0 in
  Array.iteri
    (fun i (_, v) -> best.(i) <- (if i = 0 then v else max v best.(i - 1)))
    r;
  let first_reaching v =
    (* smallest index with best >= v; best is non-decreasing *)
    let lo = ref 0 and hi = ref (Array.length r) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if best.(mid) >= v then hi := mid else lo := mid + 1
    done;
    if !lo < Array.length r then Some (fst r.(!lo)) else None
  in
  let matched, missing =
    List.fold_left
      (fun (acc, miss) (v, acked) ->
        match first_reaching v with
        | Some t -> (Float.max 0. (t -. acked) :: acc, miss)
        | None -> (acc, miss + 1))
      ([], 0) acks
  in
  (List.rev matched, missing)
