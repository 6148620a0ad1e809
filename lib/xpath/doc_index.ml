module Dom = Rxml.Dom
module R2 = Ruid.Ruid2
module O = Ruid.Order_index
module SMap = Map.Make (String)

(* The numbering's order index plus tag postings.  Postings are built
   once per build of the order index; a successor version folds the
   order's edit log into new arrays for the tags it touched and shares
   every other posting array. *)
type t = {
  order : O.t;
  posts : (string, int array) Hashtbl.t;  (* tag -> ascending keys, at build *)
  touched : int array SMap.t;  (* tags whose postings changed since *)
  log : (int * Dom.t * bool) list;  (* the order's log as folded *)
  log_len : int;
}

let build r2 =
  let order = R2.order r2 in
  (* Postings accumulate reversed per tag, then flip into arrays; the key
     sweep makes every array ascending by construction. *)
  let rev = Hashtbl.create 64 in
  O.fold
    (fun k () ->
      let node = O.node order k in
      if Dom.is_element node then begin
        let tag = Dom.tag node in
        match Hashtbl.find_opt rev tag with
        | Some l -> l := k :: !l
        | None -> Hashtbl.replace rev tag (ref [ k ])
      end)
    order ();
  let posts = Hashtbl.create (Hashtbl.length rev) in
  Hashtbl.iter
    (fun tag l -> Hashtbl.replace posts tag (Array.of_list (List.rev !l)))
    rev;
  { order; posts; touched = SMap.empty;
    log = O.log order; log_len = O.log_len order }

let postings t tag =
  match SMap.find_opt tag t.touched with
  | Some a -> a
  | None -> (
    match Hashtbl.find_opt t.posts tag with Some a -> a | None -> [||])

let lower_bound (arr : int array) ~lo target =
  let lo = ref lo and hi = ref (Array.length arr) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if arr.(mid) < target then lo := mid + 1 else hi := mid
  done;
  !lo

(* One posting edit: an element key in or out, O(cardinality). *)
let edit_posting arr k added =
  let i = lower_bound arr ~lo:0 k in
  if added then begin
    let out = Array.make (Array.length arr + 1) k in
    Array.blit arr 0 out 0 i;
    Array.blit arr i out (i + 1) (Array.length arr - i);
    out
  end
  else if i < Array.length arr && arr.(i) = k then begin
    let out = Array.make (Array.length arr - 1) 0 in
    Array.blit arr 0 out 0 i;
    Array.blit arr (i + 1) out i (Array.length arr - i - 1);
    out
  end
  else arr

(* The index of a later version of the same numbering: when its order
   index descends from this one's build, fold the new log entries into
   the postings of the tags they touch; otherwise build afresh. *)
let advance prev r2 =
  let order = R2.order r2 in
  let fresh = O.log_len order - prev.log_len in
  let rec split n l acc =
    if n = 0 then Some (l, acc)
    else match l with [] -> None | x :: rest -> split (n - 1) rest (x :: acc)
  in
  match
    if O.same_build order prev.order && fresh >= 0 then
      split fresh (O.log order) []
    else None
  with
  | Some (older, news) when older == prev.log ->
    (* [news] is oldest first *)
    let touched =
      List.fold_left
        (fun touched (k, node, added) ->
          if Dom.is_element node then
            let tag = Dom.tag node in
            let cur =
              match SMap.find_opt tag touched with
              | Some a -> a
              | None -> (
                match Hashtbl.find_opt prev.posts tag with
                | Some a -> a
                | None -> [||])
            in
            SMap.add tag (edit_posting cur k added) touched
          else touched)
        prev.touched news
    in
    { prev with order; touched; log = O.log order;
                log_len = O.log_len order }
  | Some _ | None -> build r2

let size t = O.size t.order

(* ------------------------------------------------------------------ *)
(* Keys                                                                *)
(* ------------------------------------------------------------------ *)

let key_opt t node =
  let k = O.key t.order node in
  if k < 0 then None else Some k

let key t node =
  let k = O.key t.order node in
  if k < 0 then invalid_arg "Doc_index: node outside the indexed snapshot";
  k

let mem t node = O.key t.order node >= 0

let order t = t.order

let approx_rank _ k = k asr O.shift
let compare_order t a b = Int.compare (key t a) (key t b)

let nodes_in t ~lo ~hi =
  let acc = ref [] in
  O.iter_range t.order ~lo ~hi (fun k -> acc := O.node t.order k :: !acc);
  List.rev !acc

(* ------------------------------------------------------------------ *)
(* Preorder ranks                                                      *)
(* ------------------------------------------------------------------ *)

let rank_opt t node =
  match key_opt t node with Some k -> Some (O.rank t.order k) | None -> None

let rank t node = O.rank t.order (key t node)

let extent t node =
  let k = key t node in
  (O.rank t.order k, O.rank t.order (O.last t.order k))

let node_at t r =
  let k = O.nth t.order r in
  if k < 0 then invalid_arg "Doc_index.node_at: rank out of range";
  O.node t.order k

let slice t ~lo ~hi =
  let lo = max lo 0 and hi = min hi (size t - 1) in
  if lo > hi then []
  else nodes_in t ~lo:(O.nth t.order lo) ~hi:(O.nth t.order hi)

let descendants t node =
  let k = key t node in
  nodes_in t ~lo:(k + 1) ~hi:(O.last t.order k)

let following t node =
  let k = key t node in
  nodes_in t ~lo:(O.last t.order k + 1) ~hi:max_int

let preceding t node =
  let r = key t node in
  (* Prepending while keys ascend yields nearest-first (reverse document)
     order; an earlier node is an ancestor iff its subtree reaches r. *)
  let acc = ref [] in
  O.iter_range t.order ~lo:0 ~hi:(r - 1) (fun k ->
      if O.last t.order k < r then acc := O.node t.order k :: !acc);
  !acc

(* ------------------------------------------------------------------ *)
(* Tag postings                                                        *)
(* ------------------------------------------------------------------ *)

let cardinality t tag = Array.length (postings t tag)

let tags t =
  let known = Hashtbl.fold (fun tag _ acc -> SMap.add tag () acc) t.posts SMap.empty in
  let all = SMap.fold (fun tag _ acc -> SMap.add tag () acc) t.touched known in
  SMap.fold
    (fun tag () acc -> if cardinality t tag > 0 then tag :: acc else acc)
    all []

let descendants_by_tag t node tag =
  let k = key t node in
  let arr = postings t tag in
  let i0 = lower_bound arr ~lo:0 (k + 1) in
  let i1 = lower_bound arr ~lo:i0 (O.last t.order k + 1) in
  List.init (i1 - i0) (fun j -> O.node t.order arr.(i0 + j))

let following_by_tag t node tag =
  let k = key t node in
  let arr = postings t tag in
  let i0 = lower_bound arr ~lo:0 (O.last t.order k + 1) in
  List.init (Array.length arr - i0) (fun j -> O.node t.order arr.(i0 + j))

let preceding_by_tag t node tag =
  let r = key t node in
  let arr = postings t tag in
  let i1 = lower_bound arr ~lo:0 r in
  let acc = ref [] in
  for i = 0 to i1 - 1 do
    let p = arr.(i) in
    if O.last t.order p < r then acc := O.node t.order p :: !acc
  done;
  !acc
