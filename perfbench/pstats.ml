(* Order statistics for the benchmark's reports.

   A timing is reported as a median and the highest percentile that still
   has at least [min_beyond] samples strictly above its rank: a p99 over
   300 samples rests on three values and moves with any one of them. *)

let min_beyond = 10

(* Candidate percentiles, highest first. *)
let ladder = [ 0.99; 0.98; 0.95; 0.90; 0.75; 0.50 ]

let sorted_copy a =
  let s = Array.copy a in
  Array.sort compare s;
  s

(* Nearest-rank percentile of an already sorted array: the smallest value
   with at least [p] of the samples at or below it. *)
let rank n p = max 1 (int_of_float (Float.ceil (p *. float_of_int n)))

let nearest sorted p =
  let n = Array.length sorted in
  if n = 0 then nan else sorted.(rank n p - 1)

let beyond n p = n - rank n p

(* Whether percentile [p] of [n] samples has [min_beyond] samples above it. *)
let supported n p = n > 0 && beyond n p >= min_beyond

let median a = nearest (sorted_copy a) 0.5

let maximum a = Array.fold_left Float.max neg_infinity a

(* The percentile [p] when supported, else the highest supported one below
   it; [None] when not even the median is. *)
let at_most a p =
  let s = sorted_copy a in
  let n = Array.length s in
  match List.find_opt (fun q -> q <= p && supported n q) ladder with
  | Some q -> Some (q, nearest s q)
  | None -> None

(* Indices, in run order, of the calm sub-phases of a run, given the share
   of the machine's CPU time the host stole during each: every one at or
   under [quiet], or, when fewer than [min_n] are, the [min_n] in which it
   stole the least (ties in run order).  The choice sees only the stolen
   time, never a figure. *)
let calm_indices ~quiet ~min_n steals =
  let indexed = List.mapi (fun i s -> (i, s)) steals in
  let chosen = List.filter (fun (_, s) -> s <= quiet) indexed in
  if List.length chosen >= min_n then List.map fst chosen
  else
    List.stable_sort (fun (_, a) (_, b) -> Float.compare a b) indexed
    |> List.filteri (fun k _ -> k < min_n)
    |> List.map fst
    |> List.sort compare

let mean a =
  if Array.length a = 0 then nan
  else Array.fold_left ( +. ) 0. a /. float_of_int (Array.length a)
