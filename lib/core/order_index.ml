module Dom = Rxml.Dom
module IMap = Map.Make (Int)

(* Order keys.  A bulk build gives the node at preorder position [i] the
   key [i lsl shift]; a node inserted later takes a key inside the gap
   after its document-order predecessor, so no other key moves.  The gap
   between two built keys holds 2^24 - 1 keys. *)
let shift = 24
let step = 1 lsl shift
let mask = step - 1
let is_built k = k land mask = 0

type id = { global : int; local : int; is_root : bool }

type entry = { node : Dom.t; last : int; pay : id }

type preorder = {
  nodes : Dom.t array;
  last : int array;
  height : int;
  max_degree : int;
}

(* The keys that move a preorder position off its built key — inserted
   keys (+1) and dead built keys (-1) — in an AVL tree that keeps each
   subtree's sum of moves, so a position and a key convert into each
   other in O(log edits). *)
module Moves = struct
  type t = E | N of t * int * int * t * int * int
  (* left, key, move, right, height, sum of the subtree's moves *)

  let height = function E -> 0 | N (_, _, _, _, h, _) -> h
  let sum = function E -> 0 | N (_, _, _, _, _, s) -> s

  let node l k d r =
    N (l, k, d, r, 1 + max (height l) (height r), sum l + d + sum r)

  let bal l k d r =
    let hl = height l and hr = height r in
    if hl > hr + 1 then
      match l with
      | N (ll, lk, ld, lr, _, _) when height ll >= height lr ->
        node ll lk ld (node lr k d r)
      | N (ll, lk, ld, N (lrl, lrk, lrd, lrr, _, _), _, _) ->
        node (node ll lk ld lrl) lrk lrd (node lrr k d r)
      | _ -> assert false
    else if hr > hl + 1 then
      match r with
      | N (rl, rk, rd, rr, _, _) when height rr >= height rl ->
        node (node l k d rl) rk rd rr
      | N (N (rll, rlk, rld, rlr, _, _), rk, rd, rr, _, _) ->
        node (node l k d rll) rlk rld (node rlr rk rd rr)
      | _ -> assert false
    else node l k d r

  let rec add k d = function
    | E -> node E k d E
    | N (l, k', d', r, _, _) ->
      if k < k' then bal (add k d l) k' d' r
      else if k > k' then bal l k' d' (add k d r)
      else node l k d r

  let rec pop_min = function
    | N (E, k, d, r, _, _) -> (k, d, r)
    | N (l, k, d, r, _, _) ->
      let k0, d0, l = pop_min l in
      (k0, d0, bal l k d r)
    | E -> assert false

  let rec remove k = function
    | E -> E
    | N (l, k', d', r, _, _) ->
      if k < k' then bal (remove k l) k' d' r
      else if k > k' then bal l k' d' (remove k r)
      else
        match r with
        | E -> l
        | _ ->
          let k0, d0, r = pop_min r in
          bal l k0 d0 r

  let rec mem k = function
    | E -> false
    | N (l, k', _, r, _, _) -> k = k' || mem k (if k < k' then l else r)

  (* Sum of the moves of keys below [k]. *)
  let rec below k = function
    | E -> 0
    | N (l, k', d, r, _, _) ->
      if k <= k' then below k l else sum l + d + below k r
end

type t = {
  n : int;  (* built keys: 0, step, ..., (n - 1) * step *)
  nodes : Dom.t array;  (* built position -> node as built *)
  lasts : int array;  (* built position -> key of its subtree's last node *)
  (* built position -> identifier, unboxed: two words a node where a
     record would take five (its slot, header and three fields) *)
  globals : int array;  (* the global index, negated on an area root *)
  locals : int array;
  serial_base : int;
  pos_of_serial : int array;  (* serial - base -> built position, -1 none *)
  far : (int, int) Hashtbl.t;  (* serial -> built position, outside the array *)
  (* What changed since the build: one map per field, so a lookup probes
     only the map of the field it reads, and most stay empty. *)
  versions : Dom.t IMap.t;  (* built key -> current node version *)
  ends : int IMap.t;  (* built key -> current subtree end *)
  pays' : id IMap.t;  (* built key -> current identifier *)
  ins : entry IMap.t;  (* keys inserted since the build *)
  moves : Moves.t;  (* inserted keys (+1) and dead built keys (-1) *)
  added : int IMap.t;  (* serial -> key, for inserted nodes *)
  edits : int;  (* bindings over the maps above *)
  live : int;
  log : (int * Dom.t * bool) list;
      (* inserted (true) and removed (false) keys since the build, newest
         first; readers fold the suffix they have not seen *)
  log_len : int;
}

let size t = t.live
let edits t = t.edits
let same_build a b = a.nodes == b.nodes
let log t = t.log
let log_len t = t.log_len

(* The bulk-build walk: one preorder pass over the tree records each node
   and its subtree's last position — the arrays the numbering kernel
   reads (Frame.layout) and the index is built from — and the tree's
   height and maximal degree. *)
let preorder root =
  let rec count acc x = List.fold_left count (acc + 1) x.Dom.children in
  let n = count 0 root in
  let nodes = Array.make n root and last = Array.make n 0 in
  let next = ref 0 and height = ref 0 and max_degree = ref 1 in
  let rec walk depth x =
    let i = !next in
    next := i + 1;
    nodes.(i) <- x;
    if depth > !height then height := depth;
    let d = kids depth 0 x.Dom.children in
    if d > !max_degree then max_degree := d;
    last.(i) <- !next - 1
  and kids depth d = function
    | [] -> d
    | c :: cs ->
      walk (depth + 1) c;
      kids depth (d + 1) cs
  in
  walk 0 root;
  { nodes; last; height = !height; max_degree = !max_degree }

(* The index over a walk's arrays, taking over [nodes], [last] (whose
   positions become keys in place), [globals] and [locals].  Serials in
   [base .. base + len - 1] address their built positions through an
   array, any others through [far]. *)
let index ~base ~len (pre : preorder) ~globals ~locals =
  let nodes = pre.nodes and lasts = pre.last in
  let n = Array.length nodes in
  let pos_of_serial = Array.make len (-1) and far = Hashtbl.create 16 in
  for i = 0 to n - 1 do
    let s = nodes.(i).Dom.serial in
    if s >= base && s - base < len then pos_of_serial.(s - base) <- i
    else Hashtbl.replace far s i;
    lasts.(i) <- lasts.(i) lsl shift
  done;
  {
    n; nodes; lasts; globals; locals; serial_base = base; pos_of_serial; far;
    versions = IMap.empty; ends = IMap.empty; pays' = IMap.empty;
    ins = IMap.empty; moves = Moves.E; added = IMap.empty; edits = 0;
    live = n; log = []; log_len = 0;
  }

let of_preorder (pre : preorder) ~globals ~locals =
  let n = Array.length pre.nodes in
  if Array.length globals <> n || Array.length locals <> n then
    invalid_arg "Order_index.of_preorder: one identifier per node";
  let lo = ref max_int and hi = ref min_int in
  Array.iter
    (fun x ->
      if x.Dom.serial < !lo then lo := x.Dom.serial;
      if x.Dom.serial > !hi then hi := x.Dom.serial)
    pre.nodes;
  index ~base:!lo ~len:(!hi - !lo + 1) pre ~globals ~locals

let built_pos_of_serial t s =
  let i = s - t.serial_base in
  if i >= 0 && i < Array.length t.pos_of_serial then t.pos_of_serial.(i)
  else if Hashtbl.length t.far = 0 then -1
  else match Hashtbl.find_opt t.far s with Some p -> p | None -> -1

(* ------------------------------------------------------------------ *)
(* Lookups                                                             *)
(* ------------------------------------------------------------------ *)

(* Only built keys die: an inserted key that goes is dropped from [ins]. *)
let is_dead t k = match t.moves with Moves.E -> false | m -> Moves.mem k m

(* The accessors the join kernels call per node read the build's arrays
   directly while nothing of their kind changed — always, on a document
   nobody wrote — with no call on the way: the emptiness tests are
   physical comparisons and [moves] is matched in place.  An edited
   index takes the [*_edited] path. *)

let key_of_serial_edited t s =
  let p = built_pos_of_serial t s in
  if p >= 0 then
    let k = p lsl shift in
    if is_dead t k then -1 else k
  else if t.added == IMap.empty then -1
  else match IMap.find_opt s t.added with Some k -> k | None -> -1

let key_of_serial t s =
  let i = s - t.serial_base in
  match t.moves with
  | Moves.E when i >= 0 && i < Array.length t.pos_of_serial ->
    let p = t.pos_of_serial.(i) in
    if p >= 0 then p lsl shift else -1
  | _ -> key_of_serial_edited t s

let key t node = key_of_serial t node.Dom.serial

let inserted t k =
  match IMap.find_opt k t.ins with
  | Some e -> e
  | None -> invalid_arg "Order_index: no node at this key"

let built_field over arr k =
  match IMap.find_opt k over with Some v -> v | None -> arr.(k asr shift)

let node t k =
  if is_built k && t.versions == IMap.empty then t.nodes.(k asr shift)
  else if is_built k then built_field t.versions t.nodes k
  else (inserted t k).node

let any_version t k =
  if is_built k then t.nodes.(k asr shift) else (inserted t k).node

let last t k =
  if is_built k && t.ends == IMap.empty then t.lasts.(k asr shift)
  else if is_built k then built_field t.ends t.lasts k
  else (inserted t k).last

let built_id t i =
  let g = t.globals.(i) and local = t.locals.(i) in
  if g < 0 then { global = -g; local; is_root = true }
  else { global = g; local; is_root = false }

let pay t k =
  if not (is_built k) then (inserted t k).pay
  else if t.pays' == IMap.empty then built_id t (k asr shift)
  else
    match IMap.find_opt k t.pays' with
    | Some i -> i
    | None -> built_id t (k asr shift)

(* Tags and parent identities are the same in every version of a node,
   so these read any version: a built key's without a map probe. *)
let parent t k =
  match (any_version t k).Dom.parent with
  | None -> -1
  | Some p -> key_of_serial t p.Dom.serial

let has_tag t k tag =
  match (any_version t k).Dom.kind with
  | Dom.Element { tag = t; _ } -> String.equal t tag
  | _ -> false

(* The first live key after [k] in document order, or -1. *)
let next_edited t k =
  let rec built_from i =
    if i >= t.n then max_int
    else
      let b = i lsl shift in
      if is_dead t b then built_from (i + 1) else b
  in
  let b = built_from ((k asr shift) + 1) in
  let b =
    match IMap.find_first_opt (fun x -> x > k) t.ins with
    | Some (k2, _) when k2 < b -> k2
    | _ -> b
  in
  if b = max_int then -1 else b

let next t k =
  match t.moves with
  | Moves.E ->
    (* no inserted and no dead keys: the next built key *)
    let i = (k asr shift) + 1 in
    if i < t.n then i lsl shift else -1
  | _ -> next_edited t k

let iter_range t ~lo ~hi f =
  if lo <= hi then begin
    let k = ref (if lo <= 0 then 0 else next t (lo - 1)) in
    while !k >= 0 && !k <= hi do
      f !k;
      k := next t !k
    done
  end

let fold f t acc =
  let acc = ref acc in
  iter_range t ~lo:0 ~hi:max_int (fun k -> acc := f k !acc);
  !acc

(* Unedited identifiers are the build's arrays, in document order. *)
let iter_pay f t =
  if t.moves == Moves.E && t.pays' == IMap.empty then
    for i = 0 to t.n - 1 do
      f (built_id t i)
    done
  else iter_range t ~lo:0 ~hi:max_int (fun k -> f (pay t k))

(* Built keys before [k]: its built position, plus one when [k] is an
   inserted key (it follows the built key of its gap). *)
let built_before k = (k asr shift) + if is_built k then 0 else 1

(* Preorder position of a live key: the built keys before it, moved by
   the inserted and dead keys before it. *)
let rank t k = built_before k + Moves.below k t.moves

(* The key of the node at preorder position [r], or -1.  Walking the
   moves in key order, the answer is the first inserted key at position
   [r], or else the built key [r - moves so far] once the next move lies
   past it; the positions of the moved keys ascend, so one descent of
   the tree finds the first move at or past [r]. *)
let nth t r =
  if r < 0 || r >= t.live then -1
  else begin
    let rec go acc = function
      | Moves.E -> None
      | Moves.N (l, k, d, rt, _, _) ->
        let before = acc + Moves.sum l in
        let p = built_before k + before in
        if p > r || (p = r && d > 0) then
          match go acc l with
          | Some _ as hit -> hit
          | None -> Some (if p = r && d > 0 then k else (r - before) lsl shift)
        else go (before + d) rt
    in
    match go 0 t.moves with
    | Some k -> k
    | None -> (r - Moves.sum t.moves) lsl shift
  end

(* Subtree sizes in document order.  A build's extents are positions
   already; an edited index converts each through the moves. *)
let iter_sizes f t =
  if t.moves == Moves.E && t.ends == IMap.empty then
    for i = 0 to t.n - 1 do
      f ((t.lasts.(i) asr shift) - i + 1)
    done
  else
    iter_range t ~lo:0 ~hi:max_int (fun k ->
        f (rank t (last t k) - rank t k + 1))

(* ------------------------------------------------------------------ *)
(* Persistent edits                                                    *)
(* ------------------------------------------------------------------ *)

let bump t map k = if IMap.mem k map then t.edits else t.edits + 1

let set_node t k n =
  if is_built k then
    { t with versions = IMap.add k n t.versions; edits = bump t t.versions k }
  else { t with ins = IMap.add k { (inserted t k) with node = n } t.ins }

let set_last t k l =
  if is_built k then
    { t with ends = IMap.add k l t.ends; edits = bump t t.ends k }
  else { t with ins = IMap.add k { (inserted t k) with last = l } t.ins }

let set_pay t k p =
  if is_built k then
    { t with pays' = IMap.add k p t.pays'; edits = bump t t.pays' k }
  else { t with ins = IMap.add k { (inserted t k) with pay = p } t.ins }

(* A free key strictly between [pred] and the next occupied key, or -1
   when the gap is used up.  Appending after an inserted key steps by at
   most 2^12, so thousands of consecutive appends fit one gap. *)
let alloc_after t pred =
  let b = ((pred asr shift) + 1) lsl shift in
  let nxt =
    match IMap.find_first_opt (fun x -> x > pred) t.ins with
    | Some (k2, _) when k2 < b -> k2
    | _ -> b
  in
  let room = nxt - pred in
  if room < 2 then -1 else pred + min (room / 2) 4096

let insert t k e =
  {
    t with
    ins = IMap.add k e t.ins;
    moves = Moves.add k 1 t.moves;
    added = IMap.add e.node.Dom.serial k t.added;
    edits = t.edits + 1;
    live = t.live + 1;
    log = (k, e.node, true) :: t.log;
    log_len = t.log_len + 1;
  }

let remove t k =
  let n = node t k in
  let t =
    if is_built k then
      { t with moves = Moves.add k (-1) t.moves; edits = t.edits + 1 }
    else
      { t with ins = IMap.remove k t.ins; moves = Moves.remove k t.moves;
               added = IMap.remove n.Dom.serial t.added }
  in
  { t with live = t.live - 1; log = (k, n, false) :: t.log;
           log_len = t.log_len + 1 }

(* A fresh build over the current tree: dense keys again, no edits.
   Payloads are carried over by identity.  Serials are process-global, so
   the leaves inserted since the last build hold serials from anywhere in
   the counter: the rebuild keeps the serial range of the array it
   replaces and puts the others in [far], so the index stays O(nodes)
   however long the process has run. *)
let compact t root =
  let pre = preorder root in
  let m = Array.length pre.nodes in
  let globals = Array.make m 0 and locals = Array.make m 0 in
  Array.iteri
    (fun i x ->
      let id = pay t (key t x) in
      globals.(i) <- (if id.is_root then -id.global else id.global);
      locals.(i) <- id.local)
    pre.nodes;
  index ~base:t.serial_base ~len:(Array.length t.pos_of_serial) pre ~globals
    ~locals
