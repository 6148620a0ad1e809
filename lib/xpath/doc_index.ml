module Dom = Rxml.Dom
module R2 = Ruid.Ruid2

type t = {
  serial_base : int;
  rank_of_serial : int array;  (* serial - base -> rank; -1 = not indexed *)
  nodes : Dom.t array;  (* rank -> node *)
  subtree_end : int array;  (* rank -> rank of the subtree's last node *)
  posts : (string, int array) Hashtbl.t;  (* tag -> ascending element ranks *)
}

let size t = Array.length t.nodes

let build r2 =
  let root = R2.root r2 in
  let all = R2.all_nodes r2 in
  let n = List.length all in
  let base, top =
    List.fold_left
      (fun (lo, hi) x -> (min lo x.Dom.serial, max hi x.Dom.serial))
      (max_int, min_int) all
  in
  let rank_of_serial = Array.make (top - base + 1) (-1) in
  let nodes = Array.make n root in
  let subtree_end = Array.make n 0 in
  let next = ref 0 in
  let rec assign node =
    let r = !next in
    incr next;
    rank_of_serial.(node.Dom.serial - base) <- r;
    nodes.(r) <- node;
    List.iter assign node.Dom.children;
    subtree_end.(r) <- !next - 1
  in
  assign root;
  assert (!next = n);
  (* Postings accumulate reversed per tag, then flip into arrays; the rank
     sweep makes every array ascending by construction. *)
  let rev = Hashtbl.create 64 in
  Array.iteri
    (fun r node ->
      if Dom.is_element node then begin
        let tag = Dom.tag node in
        match Hashtbl.find_opt rev tag with
        | Some l -> l := r :: !l
        | None -> Hashtbl.replace rev tag (ref [ r ])
      end)
    nodes;
  let posts = Hashtbl.create (Hashtbl.length rev) in
  Hashtbl.iter
    (fun tag l -> Hashtbl.replace posts tag (Array.of_list (List.rev !l)))
    rev;
  { serial_base = base; rank_of_serial; nodes; subtree_end; posts }

let rank_opt t node =
  let i = node.Dom.serial - t.serial_base in
  if i < 0 || i >= Array.length t.rank_of_serial then None
  else
    match t.rank_of_serial.(i) with -1 -> None | r -> Some r

let rank t node =
  match rank_opt t node with
  | Some r -> r
  | None -> invalid_arg "Doc_index: node outside the indexed snapshot"

let mem t node = rank_opt t node <> None
let extent t node =
  let r = rank t node in
  (r, t.subtree_end.(r))

let node_at t r =
  if r < 0 || r >= Array.length t.nodes then
    invalid_arg "Doc_index.node_at: rank out of range";
  t.nodes.(r)

let subtree_end t r = t.subtree_end.(r)

let parent_rank t r =
  match t.nodes.(r).Dom.parent with
  | None -> -1
  | Some p -> (
    let i = p.Dom.serial - t.serial_base in
    if i < 0 || i >= Array.length t.rank_of_serial then -1
    else t.rank_of_serial.(i))

let compare_order t a b = Stdlib.compare (rank t a) (rank t b)

let slice t ~lo ~hi =
  let lo = max lo 0 and hi = min hi (Array.length t.nodes - 1) in
  if lo > hi then [] else List.init (hi - lo + 1) (fun j -> t.nodes.(lo + j))

let descendants t node =
  let r, e = extent t node in
  slice t ~lo:(r + 1) ~hi:e

let following t node =
  let _, e = extent t node in
  slice t ~lo:(e + 1) ~hi:(Array.length t.nodes - 1)

let preceding t node =
  let r = rank t node in
  (* Prepending while ranks ascend yields nearest-first (reverse document)
     order; an earlier node is an ancestor iff its subtree reaches r. *)
  let acc = ref [] in
  for i = 0 to r - 1 do
    if t.subtree_end.(i) < r then acc := t.nodes.(i) :: !acc
  done;
  !acc

let postings t tag =
  match Hashtbl.find_opt t.posts tag with Some a -> a | None -> [||]

let cardinality t tag = Array.length (postings t tag)
let tags t = Hashtbl.fold (fun tag _ acc -> tag :: acc) t.posts []

let lower_bound (arr : int array) ~lo target =
  let lo = ref lo and hi = ref (Array.length arr) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if arr.(mid) < target then lo := mid + 1 else hi := mid
  done;
  !lo

let descendants_by_tag t node tag =
  let r, e = extent t node in
  let arr = postings t tag in
  let i0 = lower_bound arr ~lo:0 (r + 1) in
  let i1 = lower_bound arr ~lo:i0 (e + 1) in
  List.init (i1 - i0) (fun j -> t.nodes.(arr.(i0 + j)))

let following_by_tag t node tag =
  let _, e = extent t node in
  let arr = postings t tag in
  let i0 = lower_bound arr ~lo:0 (e + 1) in
  List.init (Array.length arr - i0) (fun j -> t.nodes.(arr.(i0 + j)))

let preceding_by_tag t node tag =
  let r = rank t node in
  let arr = postings t tag in
  let i1 = lower_bound arr ~lo:0 r in
  let acc = ref [] in
  for i = 0 to i1 - 1 do
    let p = arr.(i) in
    if t.subtree_end.(p) < r then acc := t.nodes.(p) :: !acc
  done;
  !acc
