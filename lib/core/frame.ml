module Dom = Rxml.Dom
module ISet = Set.Make (Int)

(* [cut] is frozen once a numbering shares the frame; a structural update
   that retires areas records them in [dropped] instead, so every version
   keeps its own cut set at O(log dropped) per retirement.  [root] is the
   version's copy of the tree root. *)
type t = {
  root : Dom.t;
  cut : (int, unit) Hashtbl.t;  (* serials of area roots, root included *)
  dropped : ISet.t;  (* serials retired from [cut] by later versions *)
}

let root t = t.root

let is_area_root t n =
  Hashtbl.mem t.cut n.Dom.serial
  && (ISet.is_empty t.dropped || not (ISet.mem n.Dom.serial t.dropped))

let reroot t root = { t with root }
let drop t n = { t with dropped = ISet.add n.Dom.serial t.dropped }

let own_area_root t n =
  let rec go n = if is_area_root t n then n else
    match n.Dom.parent with
    | Some p -> go p
    | None -> failwith "Frame.own_area_root: node outside the frame's tree"
  in
  go n

let area_root_of t n =
  if Dom.equal n t.root then t.root
  else
    match n.Dom.parent with
    | Some p -> own_area_root t p
    | None -> failwith "Frame.area_root_of: detached node"

let frame_parent t n =
  match n.Dom.parent with
  | None -> None
  | Some p -> Some (own_area_root t p)

let frame_children t r =
  (* Area roots whose nearest strict-ancestor area root is [r]: collect cut
     nodes below [r], not descending past them. *)
  let acc = ref [] in
  let rec go n =
    List.iter
      (fun c ->
        if is_area_root t c then acc := c :: !acc else go c)
      n.Dom.children
  in
  go r;
  List.rev !acc

let area_roots t =
  List.filter (is_area_root t) (Dom.preorder t.root)

let area_count t = Hashtbl.length t.cut - ISet.cardinal t.dropped

let area_members t r =
  let acc = ref [] in
  let rec go n =
    acc := n :: !acc;
    if Dom.equal n r || not (is_area_root t n) then
      List.iter go n.Dom.children
  in
  go r;
  List.rev !acc

let area_fanout t r =
  let best = ref 1 in
  let rec go n =
    if Dom.equal n r || not (is_area_root t n) then begin
      let d = Dom.degree n in
      if d > !best then best := d;
      List.iter go n.Dom.children
    end
  in
  go r;
  !best

let frame_fanout t =
  List.fold_left
    (fun acc r -> max acc (List.length (frame_children t r)))
    1 (area_roots t)

let frame_depth t =
  let rec go r = List.fold_left (fun acc c -> max acc (1 + go c)) 0 (frame_children t r) in
  go t.root

let of_cut_set root nodes =
  let cut = Hashtbl.create 64 in
  Hashtbl.replace cut root.Dom.serial ();
  List.iter
    (fun n ->
      if not (Dom.equal n root || Dom.is_ancestor ~anc:root ~desc:n) then
        invalid_arg "Frame.of_cut_set: node not in tree";
      Hashtbl.replace cut n.Dom.serial ())
    nodes;
  { root; cut; dropped = ISet.empty }

let uncut t n =
  if Dom.equal n t.root then invalid_arg "Frame.uncut: tree root";
  Hashtbl.remove t.cut n.Dom.serial

let bits v =
  let rec go acc v = if v = 0 then acc else go (acc + 1) (v lsr 1) in
  go 0 v

let default_area_size = 64

(* Keep k^depth comfortably inside a native integer: local indices stay
   under ~48 bits, leaving headroom for fan-out growth under updates. *)
let default_area_depth ~max_fanout = max 4 (48 / bits (max_fanout + 1))

(* ------------------------------------------------------------------ *)
(* The enumeration kernel's frame side                                 *)
(* ------------------------------------------------------------------ *)

module O = Order_index

type layout = {
  pre : O.preorder;
  cut : Bytes.t;
  aroot : int array;
  fslot : int array;
  fprev : int array;
  fanout : int array;
  members : int array;
  kappa : int;
}

let is_cut cut i = Bytes.unsafe_get cut i <> '\000'

(* The passes below visit positions in preorder beside a stack of the
   open ones, indexed by depth: position [i]'s parent is the top once
   every open subtree that ends before [i] is popped. *)

(* One pass over a cut: areas numbered in preorder of their roots; each
   area's frame slot and previous frame sibling, fan-out and member
   count; the frame fan-out. *)
let describe (pre : O.preorder) cut =
  let n = Array.length pre.nodes and last = pre.last in
  let areas = ref 0 in
  for i = 0 to n - 1 do
    if is_cut cut i then incr areas
  done;
  let aroot = Array.make !areas 0 and fslot = Array.make !areas 0 in
  let fprev = Array.make !areas (-1) and fanout = Array.make !areas 1 in
  let members = Array.make !areas 1 and children = Array.make !areas 0 in
  let youngest = Array.make !areas (-1) in
  (* per open position: where its subtree ends, the area enumerating its
     children and the children seen so far *)
  let depth = pre.height + 1 in
  let ends = Array.make depth 0 and area = Array.make depth 0 in
  let seen = Array.make depth 0 in
  let close t =
    let a = area.(t) in
    if seen.(t) > fanout.(a) then fanout.(a) <- seen.(t)
  in
  ends.(0) <- last.(0);
  let top = ref 0 and next = ref 1 and kappa = ref 1 in
  for i = 1 to n - 1 do
    while ends.(!top) < i do
      close !top;
      decr top
    done;
    let p = !top in
    seen.(p) <- seen.(p) + 1;
    let a = area.(p) in
    members.(a) <- members.(a) + 1;
    let t = p + 1 in
    top := t;
    ends.(t) <- last.(i);
    seen.(t) <- 0;
    if is_cut cut i then begin
      let b = !next in
      next := b + 1;
      aroot.(b) <- i;
      area.(t) <- b;
      fslot.(b) <- children.(a);
      fprev.(b) <- youngest.(a);
      youngest.(a) <- b;
      children.(a) <- children.(a) + 1;
      if children.(a) > !kappa then kappa := children.(a)
    end
    else area.(t) <- a
  done;
  for t = !top downto 0 do
    close t
  done;
  { pre; cut; aroot; fslot; fprev; fanout; members; kappa = !kappa }

(* The greedy cut by the rule of an online builder over start and end
   tags: each node spends one slot of the budget of the area enumerating
   it and joins that area while the budget and the area's depth budget
   last; otherwise it becomes an area root — still a leaf of the upper
   area — whose children start a fresh area.  A decision depends only on
   nodes before it in document order, so a stack of open-area budgets
   suffices. *)
let greedy_cut (pre : O.preorder) ~max_area_size ~max_area_depth =
  let n = Array.length pre.nodes and last = pre.last in
  let cut = Bytes.make n '\000' in
  (* per open position: where its subtree ends, the stack level of the
     root of the area enumerating its children and the depth inside that
     area at which they are checked; at a level rooting an area, the
     slots it has left *)
  let depth = pre.height + 1 in
  let ends = Array.make depth 0 and area = Array.make depth 0 in
  let inner = Array.make depth 1 and budget = Array.make depth 0 in
  Bytes.unsafe_set cut 0 '\001';
  ends.(0) <- last.(0);
  budget.(0) <- max_area_size - 1;
  let top = ref 0 in
  for i = 1 to n - 1 do
    while ends.(!top) < i do
      decr top
    done;
    let p = !top in
    let a = area.(p) in
    let b = budget.(a) - 1 in
    budget.(a) <- b;
    let t = p + 1 in
    top := t;
    ends.(t) <- last.(i);
    if b >= 0 && inner.(p) < max_area_depth then begin
      area.(t) <- a;
      inner.(t) <- inner.(p) + 1
    end
    else begin
      Bytes.unsafe_set cut i '\001';
      area.(t) <- t;
      inner.(t) <- 1;
      budget.(t) <- max_area_size - 1
    end
  done;
  cut

(* Section 2.3: while an area root has more frame children than the tree
   has fan-out, group its frame children by the tree child of the area
   root they sit under, and promote the lowest common ancestor of the
   largest group (ties: the earlier tree child — never hash order, so two
   parses of the same bytes cut alike).  Marks the promoted nodes in
   [lay.cut].  Entered only when the frame's fan-out exceeds the tree's.

   A promotion leaves every other group of its area root as it was and
   turns its own into the one promoted node, a group of one that is never
   picked again.  So each area root's groups are formed once and promoted
   in the order of that rule — largest first, then the earlier tree child
   — until few enough frame children remain.  A promoted node's own frame
   children are the group, and it gets its turn in the worklist; no
   promotion under one area root touches another's frame children. *)
let promote lay ~tree_fanout =
  let last = lay.pre.last and cut = lay.cut in
  let n = Array.length last in
  (* parents, and the frame children of each area root by position,
     collected in descending order *)
  let parent = Array.make n (-1) and below = Array.make n [] in
  let open_ = Array.make (lay.pre.height + 1) 0 in
  let owner = Array.make (lay.pre.height + 1) 0 in
  let top = ref 0 in
  for i = 1 to n - 1 do
    while last.(open_.(!top)) < i do
      decr top
    done;
    parent.(i) <- open_.(!top);
    let u = owner.(!top) in
    incr top;
    open_.(!top) <- i;
    if is_cut cut i then begin
      below.(u) <- i :: below.(u);
      owner.(!top) <- i
    end
    else owner.(!top) <- u
  done;
  (* the frame children of the area roots still to regroup, ascending *)
  let worklist = Queue.create () in
  Array.iter
    (fun u ->
      if List.compare_length_with below.(u) tree_fanout > 0 then begin
        let fcs = Array.of_list below.(u) in
        let k = Array.length fcs in
        Queue.add (u, Array.init k (fun i -> fcs.(k - 1 - i))) worklist
      end)
    lay.aroot;
  while not (Queue.is_empty worklist) do
    let u, fcs = Queue.pop worklist in
    (* A tree child's subtree is one run of positions, so the ascending
       frame children come grouped: [(branch, start, size)] names the run
       [fcs.(start) ..] under each tree child holding two or more. *)
    let count = Array.length fcs in
    let groups = ref [] and i = ref 0 in
    while !i < count do
      let rec branch x = if parent.(x) = u then x else branch parent.(x) in
      let b = branch fcs.(!i) in
      let j = ref (!i + 1) in
      while !j < count && fcs.(!j) <= last.(b) do
        incr j
      done;
      if !j - !i >= 2 then groups := (b, !i, !j - !i) :: !groups;
      i := !j
    done;
    let ranked =
      List.sort
        (fun (b1, _, s1) (b2, _, s2) ->
          match Int.compare s2 s1 with 0 -> Int.compare b1 b2 | c -> c)
        !groups
    in
    let remaining = ref count in
    List.iter
      (fun (_, start, size) ->
        if !remaining > tree_fanout then begin
          (* The group spans positions [lo .. hi]; its lowest common
             ancestor is the nearest ancestor of [lo] whose subtree
             reaches [hi] (no group member is an ancestor of another). *)
          let lo = fcs.(start) and hi = fcs.(start + size - 1) in
          let rec lca x = if last.(x) >= hi then x else lca parent.(x) in
          let l = lca parent.(lo) in
          assert (not (is_cut cut l));
          Bytes.set cut l '\001';
          remaining := !remaining - size + 1;
          if size > tree_fanout then
            Queue.add (l, Array.sub fcs start size) worklist
        end)
      ranked;
    (* Impossible otherwise while the fan-out exceeds the tree's: some
       branch must hold two frame children. *)
    assert (!remaining <= tree_fanout)
  done

let frame_of lay =
  let nodes = lay.pre.nodes in
  let cut = Hashtbl.create 64 in
  Array.iter (fun i -> Hashtbl.replace cut nodes.(i).Dom.serial ()) lay.aroot;
  { root = nodes.(0); cut; dropped = ISet.empty }

let partition_layout ?(max_area_size = default_area_size) ?max_area_depth
    ?(adjust = true) root =
  if max_area_size < 2 then invalid_arg "Frame.partition: max_area_size < 2";
  (match max_area_depth with
  | Some d when d < 1 -> invalid_arg "Frame.partition: max_area_depth < 1"
  | _ -> ());
  let pre = O.preorder root in
  let tree_fanout = pre.max_degree in
  let max_area_depth =
    match max_area_depth with
    | Some d -> d
    | None -> default_area_depth ~max_fanout:tree_fanout
  in
  let cut = greedy_cut pre ~max_area_size ~max_area_depth in
  let lay = describe pre cut in
  let lay =
    if adjust && lay.kappa > tree_fanout then begin
      promote lay ~tree_fanout;
      describe pre cut
    end
    else lay
  in
  (frame_of lay, lay)

let partition ?max_area_size ?max_area_depth ?adjust root =
  fst (partition_layout ?max_area_size ?max_area_depth ?adjust root)

let layout t =
  let pre = O.preorder t.root in
  let cut =
    Bytes.init (Array.length pre.nodes) (fun i ->
        if i = 0 || is_area_root t pre.nodes.(i) then '\001' else '\000')
  in
  describe pre cut

let of_cut_bits pre cut =
  Bytes.set cut 0 '\001';
  let lay = describe pre cut in
  (frame_of lay, lay)

let check_invariants t =
  let fail fmt = Format.kasprintf failwith fmt in
  if not (is_area_root t t.root) then fail "tree root is not an area root";
  (* Every node is enumerated in exactly one area; collect membership. *)
  let seen = Hashtbl.create 256 in
  List.iter
    (fun r ->
      let members = area_members t r in
      (match members with
      | m :: _ when Dom.equal m r -> ()
      | _ -> fail "area members must start with the area root");
      List.iter
        (fun m ->
          if not (Dom.equal m r) then begin
            if Hashtbl.mem seen m.Dom.serial then
              fail "node %d enumerated in two areas" m.Dom.serial;
            Hashtbl.replace seen m.Dom.serial r.Dom.serial
          end;
          (* Induced subtree: every member's parent is the area root or
             a member recorded before it (members come in preorder). *)
          if not (Dom.equal m r) then
            match m.Dom.parent with
            | None -> fail "non-root member without parent"
            | Some p ->
              if not (Dom.equal p r
                      || Hashtbl.find_opt seen p.Dom.serial = Some r.Dom.serial)
              then fail "area is not an induced subtree")
        members)
    (area_roots t);
  (* Coverage: every node except the tree root appears exactly once. *)
  Dom.iter_preorder
    (fun n ->
      if not (Dom.equal n t.root) && not (Hashtbl.mem seen n.Dom.serial) then
        fail "node %d not enumerated in any area" n.Dom.serial)
    t.root

let check = check_invariants
