module Dom = Rxml.Dom
module U = Uid.Over_int

type id = Order_index.id = { global : int; local : int; is_root : bool }

let pp_id ppf i =
  Format.fprintf ppf "(%d, %d, %b)" i.global i.local i.is_root

let id_to_string i = Format.asprintf "%a" pp_id i
let id_equal (a : id) (b : id) = a = b
let id_compare (a : id) (b : id) = Stdlib.compare a b

(* Nodes enumerated in one area, ascending by local index; local 1 is
   the area root.  Serials, not nodes: a path copy changes which record
   is a node's current version, never its serial, so an area's table
   survives every update that does not renumber the area. *)
type area = { locals : int array; serials : int array }

module IMap = Map.Make (Int)

(* One version of the numbering.  Every field is persistent: the order
   index shares all but its recent edits with the versions it came from,
   the area map and K (balanced maps over about n/64 areas) all but the
   paths an update copied, and the frame records retired areas beside a
   frozen cut set. *)
type state = {
  ktable : Ktable.t;
  frame : Frame.t;  (* cut set, and this version's copy of the tree root *)
  order : Order_index.t;  (* key -> node version, subtree end, id *)
  areas : area IMap.t;  (* area global -> its enumerated nodes *)
}

(* [exclusive] holds until the first clone: no other numbering shares the
   tree, so updates edit it in place and a caller's own handles on the
   tree stay live.  After a clone both copies path-copy instead. *)
type t = { kappa : int; mutable st : state; mutable exclusive : bool }

module O = Order_index

let kappa t = t.kappa
let ktable t = t.st.ktable
let frame t = t.st.frame
let root t = Frame.root t.st.frame
let order t = t.st.order
let area_count t = Ktable.size t.st.ktable
let aux_memory_words t = Ktable.memory_words t.st.ktable + 1

(* A placeholder id for a node the enumeration has not reached yet: no
   real identifier has global index 0. *)
let unset = { global = 0; local = 0; is_root = false }

let id_in st n =
  let k = O.key st.order n in
  if k < 0 then raise Not_found else O.pay st.order k

let id_of_node t n = id_in t.st n

let node_of_serial st s =
  let k = O.key_of_serial st.order s in
  if k < 0 then None else Some (O.node st.order k)

let current_in st n = node_of_serial st n.Dom.serial
let current t n = current_in t.st n

let node_at_rank t r =
  let k = O.nth t.st.order r in
  if k < 0 then None else Some (O.node t.st.order k)

(* The position at which a node is enumerated: for an area root, its leaf
   slot in the upper area (the tree root being (1, 1)); for any other node,
   its own (global, local). *)
let pos t (i : id) =
  if not i.is_root then (i.global, i.local)
  else if i.global = 1 then (1, 1)
  else
    match U.parent ~k:t.kappa i.global with
    | Some p -> (p, i.local)
    | None -> assert false

(* Index of [l] in an area's ascending locals, or of the first local above
   it when absent. *)
let lower_bound (a : area) l =
  let lo = ref 0 and hi = ref (Array.length a.locals) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if a.locals.(mid) < l then lo := mid + 1 else hi := mid
  done;
  !lo

let find_local a l =
  let i = lower_bound a l in
  if i < Array.length a.locals && a.locals.(i) = l then i else -1

let node_at_pos t (g, l) =
  match IMap.find_opt g t.st.areas with
  | None -> None
  | Some a ->
    let i = find_local a l in
    if i < 0 then None else node_of_serial t.st a.serials.(i)

let node_of_id t i =
  match node_at_pos t (pos t i) with
  | Some n when id_equal (id_of_node t n) i -> Some n
  | Some _ | None -> None

let area_root_node t g = node_at_pos t (g, 1)

let global_of_area t n =
  if Frame.is_area_root t.st.frame n then
    match id_of_node t n with i -> Some i.global | exception Not_found -> None
  else None

let all_nodes t = Dom.preorder (root t)

let fold_ids f t acc =
  let o = t.st.order in
  O.fold (fun k acc -> f (O.pay o k) acc) o acc

let max_local_bits t =
  let bits v =
    let rec go acc v = if v = 0 then acc else go (acc + 1) (v lsr 1) in
    go 0 v
  in
  fold_ids (fun i acc -> max acc (max (bits i.global) (bits i.local))) t 0

let total_label_bits t =
  let bits v =
    let rec go acc v = if v = 0 then acc else go (acc + 1) (v lsr 1) in
    max 1 (go 0 v)
  in
  fold_ids (fun i acc -> acc + bits i.global + bits i.local + 1) t 0

(* ------------------------------------------------------------------ *)
(* Construction                                                        *)
(* ------------------------------------------------------------------ *)

let enumerate_area frame ~k r =
  (* Locals of the nodes enumerated in the area of [r] (members), [r]
     itself taking local index 1; enumeration stops at child-area roots,
     which are leaves here.  The per-area rule of structural updates. *)
  let acc = ref [] in
  let rec go local n =
    acc := (n, local) :: !acc;
    if Dom.equal n r || not (Frame.is_area_root frame n) then
      List.iteri (fun j c -> go (U.child ~k local j) c) n.Dom.children
  in
  go 1 r;
  List.rev !acc

let area_of_members members =
  let a = Array.of_list members in
  Array.sort (fun (_, x) (_, y) -> Int.compare x y) a;
  { locals = Array.map snd a;
    serials = Array.map (fun (n, _) -> n.Dom.serial) a }

let restore_error fmt =
  Format.kasprintf (fun s -> invalid_arg ("Ruid2.restore: " ^ s)) fmt

(* The area number of an area root, by its position ([aroot] ascends). *)
let area_at (lay : Frame.layout) c =
  let lo = ref 0 and hi = ref (Array.length lay.aroot - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if lay.aroot.(mid) < c then lo := mid + 1 else hi := mid
  done;
  !lo

(* The enumeration kernel (Sections 2.1-2.2) over a layout: areas in
   preorder of their roots, each breadth first from its root — which
   makes an area's locals come out ascending, the order of its table.  A
   child of the node at local [l] in an area of fan-out [k] takes local
   [(l - 1) * k + 2 + j], and an area root's global is the kappa-ary
   child of its frame parent's at its frame slot.  The tree root's
   identifier sits in [globals] and [locals] already; every other one
   goes into them, its global negated on an area root (the order index
   keeps them so, unboxed).
   [fan] holds each area's fan-out and [lay.fslot] each area's frame
   slot: the layout's own when numbering, the stored ones when
   restoring.  [overflow] gets the root position of an area whose index
   leaves the native int.  Returns the area tables. *)
let enumerate (lay : Frame.layout) ~kappa ~fan ~globals ~locals:ls ~overflow =
  let nodes = lay.pre.nodes and last = lay.pre.last and cut = lay.cut in
  let q = Array.make (Array.fold_left max 1 lay.members) 0 in
  let areas = ref IMap.empty in
  for a = 0 to Array.length lay.aroot - 1 do
    let r = lay.aroot.(a) and k = fan.(a) and m = lay.members.(a) in
    let g = abs globals.(r) in
    let locals = Array.make m 1 and serials = Array.make m 0 in
    q.(0) <- r;
    let tail = ref 1 in
    for h = 0 to m - 1 do
      let x = q.(h) in
      let e = last.(x) in
      if e > x && (h = 0 || Bytes.unsafe_get cut x = '\000') then begin
        let l = locals.(h) in
        if l - 1 > (max_int - 2) / k then overflow r;
        let base = ((l - 1) * k) + 2 in
        let c = ref (x + 1) and j = ref 0 in
        while !c <= e do
          if base > max_int - !j then overflow r;
          q.(!tail) <- !c;
          locals.(!tail) <- base + !j;
          incr tail;
          incr j;
          c := last.(!c) + 1
        done
      end
    done;
    serials.(0) <- nodes.(r).Dom.serial;
    for h = 1 to m - 1 do
      let c = q.(h) and l = locals.(h) in
      serials.(h) <- nodes.(c).Dom.serial;
      ls.(c) <- l;
      if Bytes.unsafe_get cut c <> '\000' then begin
        let slot = lay.fslot.(area_at lay c) in
        if g - 1 > (max_int - 2 - slot) / kappa then overflow c;
        globals.(c) <- -(((g - 1) * kappa) + 2 + slot)
      end
      else globals.(c) <- g
    done;
    areas := IMap.add g { locals; serials } !areas
  done;
  !areas

(* The numbering [enumerate] derives from a layout, its frame slots and
   the fan-outs [fan]; K's rows come out of the enumeration. *)
let build frame (lay : Frame.layout) ~kappa ~fan ~overflow =
  (* the tree root's identifier, (1, 1, true), at position 0 *)
  let n = Array.length lay.pre.nodes in
  let globals = Array.make n (-1) and locals = Array.make n 1 in
  let areas = enumerate lay ~kappa ~fan ~globals ~locals ~overflow in
  let krows =
    List.init (Array.length lay.aroot) (fun a ->
        let r = lay.aroot.(a) in
        { Ktable.global = abs globals.(r); root_local = locals.(r);
          fanout = fan.(a) })
  in
  let order = O.of_preorder lay.pre ~globals ~locals in
  { kappa; st = { ktable = Ktable.make krows; frame; order; areas };
    exclusive = true }

let of_layout frame (lay : Frame.layout) =
  build frame lay ~kappa:lay.kappa ~fan:lay.fanout
    ~overflow:(fun _ -> raise Uid.Overflow)

let number_with_frame frame = of_layout frame (Frame.layout frame)

let number ?max_area_size ?max_area_depth ?adjust root =
  let frame, lay = Frame.partition_layout ?max_area_size ?max_area_depth ?adjust root in
  of_layout frame lay

(* ------------------------------------------------------------------ *)
(* Derivation routines — kappa and K only                              *)
(* ------------------------------------------------------------------ *)

(* Fig. 6 of the paper. *)
let rparent t (i : id) =
  if i.is_root && i.global = 1 then None
  else begin
    let g =
      if i.is_root then
        match U.parent ~k:t.kappa i.global with
        | Some p -> p
        | None -> assert false
      else i.global
    in
    let kj = Ktable.fanout t.st.ktable g in
    let l = ((i.local - 2) / kj) + 1 in
    if l = 1 then
      Some { global = g; local = Ktable.root_local t.st.ktable g; is_root = true }
    else Some { global = g; local = l; is_root = false }
  end

let rancestors t i =
  let rec go acc i =
    match rparent t i with None -> List.rev acc | Some p -> go (p :: acc) p
  in
  go [] i

let rlevel t i = List.length (rancestors t i)

let possible_children_ids t (i : id) =
  let g_area, alpha = if i.is_root then (i.global, 1) else (i.global, i.local) in
  let k = Ktable.fanout t.st.ktable g_area in
  let lo, _ = U.children_range ~k alpha in
  List.init k (fun j ->
      let local = lo + j in
      match
        Ktable.area_rooted_at t.st.ktable ~parent_global:g_area ~kappa:t.kappa ~local
      with
      | Some g' -> { global = g'; local; is_root = true }
      | None -> { global = g_area; local; is_root = false })

(* Climb the frame from [g] until the parent is [anc]; the frame child of
   [anc] on the path to [g]. *)
let frame_child_towards t ~anc g =
  let rec go g =
    match U.parent ~k:t.kappa g with
    | Some p when p = anc -> g
    | Some p -> go p
    | None -> assert false
  in
  go g

let rec relationship t a b =
  if id_equal a b then Rel.Self
  else begin
    let ga, la = pos t a and gb, lb = pos t b in
    if ga = gb then begin
      let k = Ktable.fanout t.st.ktable ga in
      match U.relation ~k la lb with
      | Rel.Self ->
        (* Two distinct identifiers cannot share an enumeration slot. *)
        assert false
      | r -> r
    end
    else begin
      match U.relation ~k:t.kappa ga gb with
      | Rel.Self -> assert false
      | Rel.Before -> Rel.Before
      | Rel.After -> Rel.After
      | Rel.Ancestor ->
        (* Lemma 1 composition: compare a with the joint node of the child
           area on the frame path towards b, inside area ga. *)
        let theta = frame_child_towards t ~anc:ga gb in
        let lstar = Ktable.root_local t.st.ktable theta in
        let k = Ktable.fanout t.st.ktable ga in
        (match U.relation ~k la lstar with
        | Rel.Self | Rel.Ancestor -> Rel.Ancestor
        | Rel.Before -> Rel.Before
        | Rel.After -> Rel.After
        | Rel.Descendant ->
          (* The joint is a leaf of area ga: nothing is enumerated below
             it in this area. *)
          assert false)
      | Rel.Descendant -> Rel.inverse (relationship t b a)
    end
  end

let doc_order t a b = Rel.to_order (relationship t a b)

(* ------------------------------------------------------------------ *)
(* Axes on actual nodes                                                *)
(* ------------------------------------------------------------------ *)

let parent_node t n =
  match rparent t (id_of_node t n) with
  | None -> None
  | Some p -> node_of_id t p

let ancestors t n =
  List.filter_map (node_of_id t) (rancestors t (id_of_node t n))

(* Area and parent slot in which the children of [n] are enumerated. *)
let child_context t n =
  let i = id_of_node t n in
  if i.is_root then (i.global, 1) else (i.global, i.local)

let children t n =
  let g_area, alpha = child_context t n in
  let k = Ktable.fanout t.st.ktable g_area in
  let lo, hi = U.children_range ~k alpha in
  match IMap.find_opt g_area t.st.areas with
  | None -> []
  | Some a ->
    (* The candidate slots are one run of ascending locals. *)
    let rec take i acc =
      if i >= Array.length a.locals || a.locals.(i) > hi then List.rev acc
      else
        match node_of_serial t.st a.serials.(i) with
        | Some c -> take (i + 1) (c :: acc)
        | None -> take (i + 1) acc
    in
    take (lower_bound a lo) []

(* Area-at-a-time descendant enumeration: within the context area, members
   below the context slot are found by one virtual-ancestry test each;
   every area whose root is such a member is swallowed whole (its own
   members need no test at all).  Order is unspecified. *)
let descendants_unordered t n =
  let acc = ref [] in
  let rec area_members g ~below =
    match IMap.find_opt g t.st.areas with
    | None -> ()
    | Some a ->
      let k = Ktable.fanout t.st.ktable g in
      Array.iteri
        (fun j l ->
          if l <> 1 then begin
            let take =
              match below with
              | None -> true
              | Some alpha -> U.relation ~k alpha l = Rel.Ancestor
            in
            if take then
              match node_of_serial t.st a.serials.(j) with
              | None -> ()
              | Some node ->
                acc := node :: !acc;
                let nid = id_of_node t node in
                if nid.is_root then area_members nid.global ~below:None
          end)
        a.locals
  in
  let g, alpha = child_context t n in
  (* For an area root the context is (own area, slot 1): every member is a
     strict descendant; otherwise only members below the context slot. *)
  area_members g ~below:(if alpha = 1 then None else Some alpha);
  !acc

let descendants t n =
  let rec go n = List.concat_map (fun c -> c :: go c) (children t n) in
  go n

let siblings_side t ~before n =
  let i = id_of_node t n in
  if i.is_root && i.global = 1 then []
  else begin
    let g, l = pos t i in
    let k = Ktable.fanout t.st.ktable g in
    let parent_slot = ((l - 2) / k) + 1 in
    let lo, hi = U.children_range ~k parent_slot in
    let slots = List.init (hi - lo + 1) (fun j -> lo + j) in
    let keep slot = if before then slot < l else slot > l in
    List.filter_map
      (fun slot -> if keep slot then node_at_pos t (g, slot) else None)
      slots
  end

let preceding_siblings t n = siblings_side t ~before:true n
let following_siblings t n = siblings_side t ~before:false n

(* Nodes enumerated in area [g]: the area root belongs to the upper area's
   set, except the tree root which is enumerated in its own area. *)
let set_of_area t g =
  match area_root_node t g with
  | None -> []
  | Some r ->
    let members = Frame.area_members t.st.frame r in
    if g = 1 then members else List.tl members

(* Lemma 3 driven sweep: whole areas are classified by their frame
   relation to the context node's area; only the context area and its
   frame ancestors need per-node checks. *)
let side_axis t ~(want : Rel.t) n =
  let a_id = id_of_node t n in
  let ga, _ = pos t a_id in
  let out = ref [] in
  let add x = out := x :: !out in
  IMap.iter
    (fun g _ ->
      match U.relation ~k:t.kappa g ga with
      | Rel.Before -> if want = Rel.Before then List.iter add (set_of_area t g)
      | Rel.After -> if want = Rel.After then List.iter add (set_of_area t g)
      | Rel.Self | Rel.Ancestor ->
        List.iter
          (fun x ->
            if relationship t (id_of_node t x) a_id = want then add x)
          (set_of_area t g)
      | Rel.Descendant -> (
        match area_root_node t g with
        | Some r when relationship t (id_of_node t r) a_id = want ->
          List.iter add (set_of_area t g)
        | Some _ | None -> ()))
    t.st.areas;
  List.sort (fun x y -> doc_order t (id_of_node t x) (id_of_node t y)) !out

let preceding t n = side_axis t ~want:Rel.Before n
let following t n = side_axis t ~want:Rel.After n

(* ------------------------------------------------------------------ *)
(* Structural update                                                   *)
(* ------------------------------------------------------------------ *)

(* Every update derives a new state from [t.st] and installs it only once
   it is complete, so an update that raises (Uid.Overflow in a renumbered
   area) leaves the numbering at its previous version — unless the
   numbering is exclusive, whose tree edits are made in place.  The order
   index and the areas of a shared numbering change by path copying: new
   versions of the edited node and of each ancestor up to the root, found
   by serial through the order index (a shared node's [parent] may name an
   older version, so it is read for its serial only). *)

let parent_in st n =
  match n.Dom.parent with
  | None -> None
  | Some p -> node_of_serial st p.Dom.serial

(* Record new node versions in the order index: same key, same extent,
   same identifier. *)
let rekey order copies =
  List.fold_left (fun order n -> O.set_node order (O.key order n) n) order copies

(* New versions of [n] and of its ancestors, wired to each other; the old
   versions stay as they were.  Returns [n]'s new version, the new root,
   and every new version. *)
let path_copy st n =
  let root = Frame.root st.frame in
  let rec up copy orig acc =
    if Dom.equal orig root then (copy, acc)
    else
      match parent_in st orig with
      | None -> (copy, acc)
      | Some p ->
        let p' = Dom.version p in
        Dom.replace_child p' ~old:orig copy;
        up p' p (p' :: acc)
  in
  let n' = Dom.version n in
  let root', copies = up n' n [ n' ] in
  (n', root', copies)

(* The editable version of [parent] and the state it lives in: the node
   itself for an exclusive numbering, a path copy otherwise. *)
let editable t st parent =
  if t.exclusive then (parent, st)
  else
    let p', root', copies = path_copy st parent in
    (p', { st with frame = Frame.reroot st.frame root';
                   order = rekey st.order copies })

(* Fold [f] over [n]'s ancestors, nearest first, in [st]. *)
let rec climb st n f acc =
  match f acc n with
  | `Stop acc -> acc
  | `Go acc -> (
    if Dom.equal n (Frame.root st.frame) then acc
    else match parent_in st n with None -> acc | Some p -> climb st p f acc)

(* Re-enumerate the single area rooted at [r] (its current version) with
   the fan-out recorded in K; refresh identifiers and the K rows of child
   areas whose joint index moved; count changed identifiers of
   pre-existing nodes. *)
let renumber_area st r =
  let g = (id_in st r).global in
  let k = Ktable.fanout st.ktable g in
  let members = enumerate_area st.frame ~k r in
  let order = ref st.order and ktable = ref st.ktable and changed = ref 0 in
  List.iter
    (fun (n, local) ->
      if not (Dom.equal n r) then begin
        let key = O.key !order n in
        let old = O.pay !order key in
        let i =
          if Frame.is_area_root st.frame n then
            { global = old.global; local; is_root = true }
          else { global = g; local; is_root = false }
        in
        if not (id_equal old i) then begin
          if old.global <> 0 then begin
            incr changed;
            if old.is_root then begin
              (* The joint moved: record the new leaf index in K; the child
                 area's own nodes keep their identifiers. *)
              let row = Option.get (Ktable.find !ktable i.global) in
              ktable := Ktable.with_row !ktable { row with Ktable.root_local = local }
            end
          end;
          order := O.set_pay !order key i
        end
      end)
    members;
  ( { st with order = !order; ktable = !ktable;
              areas = IMap.add g (area_of_members members) st.areas },
    !changed )

(* Compact the order index when its overlay outgrows an eighth of the
   document, or when a key gap is used up. *)
let compacted st =
  let o = st.order in
  if O.edits o > max 64 (O.size o / 8) then
    { st with order = O.compact o (Frame.root st.frame) }
  else st

let insert_node ?(slack = 0) t ~parent ~pos node =
  if node.Dom.children <> [] then
    invalid_arg "Ruid2.insert_node: only leaf insertion is supported";
  let st = compacted t.st in
  let parent =
    match current_in st parent with
    | Some p -> p
    | None -> invalid_arg "Ruid2.insert_node: parent not in numbered tree"
  in
  (match node.Dom.parent with
  | Some _ -> invalid_arg "Dom.insert_child: child already attached"
  | None -> ());
  let pos = max 0 (min pos (Dom.degree parent)) in
  (* The new node's key follows its document-order predecessor: the
     parent, or the last node under the previous sibling. *)
  let pred st =
    let o = st.order in
    if pos = 0 then O.key o parent
    else O.last o (O.key o (List.nth parent.Dom.children (pos - 1)))
  in
  let st =
    if O.alloc_after st.order (pred st) >= 0 then st
    else { st with order = O.compact st.order (Frame.root st.frame) }
  in
  let nk = O.alloc_after st.order (pred st) in
  let parent', st = editable t st parent in
  Dom.insert_child parent' ~pos node;
  let order = O.insert st.order nk { O.node; last = nk; pay = unset } in
  (* Ancestors whose extent ended before the new key now end at it. *)
  let order =
    climb st parent'
      (fun order a ->
        let k = O.key order a in
        if O.last order k < nk then `Go (O.set_last order k nk)
        else `Stop order)
      order
  in
  let st = { st with order } in
  let r =
    Option.get (current_in st (Frame.own_area_root st.frame parent'))
  in
  let g = (id_in st r).global in
  let row = Option.get (Ktable.find st.ktable g) in
  let needed = Dom.degree parent' in
  let st =
    if needed > row.Ktable.fanout then
      { st with ktable = Ktable.with_row st.ktable
                    { row with Ktable.fanout = needed + slack } }
    else st
  in
  let st, changed = renumber_area st r in
  t.st <- st;
  changed

let delete_subtree t node =
  let st = compacted t.st in
  if Dom.equal node (Frame.root st.frame) then
    invalid_arg "Ruid2.delete_subtree: cannot delete the tree root";
  let node, parent =
    match current_in st node with
    | None -> invalid_arg "Ruid2.delete_subtree: detached node"
    | Some n -> (
      match parent_in st n with
      | Some p -> (n, p)
      | None -> invalid_arg "Ruid2.delete_subtree: detached node")
  in
  let o = st.order in
  let nk = O.key o node in
  let nlast = O.last o nk in
  (* The deleted subtree's predecessor ends every extent it ended. *)
  let newlast =
    let rec before prev = function
      | [] -> assert false
      | c :: rest ->
        if Dom.equal c node then prev
        else before (O.last o (O.key o c)) rest
    in
    before (O.key o parent) parent.Dom.children
  in
  (* Drop the subtree's keys and the areas inside it. *)
  let st =
    let keys = ref [] in
    O.iter_range o ~lo:nk ~hi:nlast (fun k -> keys := k :: !keys);
    List.fold_left
      (fun st k ->
        let x = O.node st.order k in
        let st =
          if Frame.is_area_root st.frame x then
            let gx = (O.pay st.order k).global in
            { st with ktable = Ktable.without st.ktable gx;
                      areas = IMap.remove gx st.areas;
                      frame = Frame.drop st.frame x }
          else st
        in
        { st with order = O.remove st.order k })
      st !keys
  in
  let parent', st = editable t st parent in
  if t.exclusive then Dom.remove_child parent' node
  else
    (* older versions still hold [node]: leave its parent as it is *)
    parent'.Dom.children <-
      List.filter (fun c -> not (Dom.equal c node)) parent'.Dom.children;
  let order =
    climb st parent'
      (fun order a ->
        let k = O.key order a in
        if O.last order k = nlast then `Go (O.set_last order k newlast)
        else `Stop order)
      st.order
  in
  let st = { st with order } in
  let r =
    Option.get (current_in st (Frame.own_area_root st.frame parent'))
  in
  let st, changed = renumber_area st r in
  t.st <- st;
  changed

(* ------------------------------------------------------------------ *)
(* Consistency checking                                                *)
(* ------------------------------------------------------------------ *)

let check_consistency t =
  let fail fmt = Format.kasprintf failwith fmt in
  Frame.check_invariants t.st.frame;
  let nodes = all_nodes t in
  if O.size t.st.order <> List.length nodes then
    fail "id map has %d entries for %d nodes" (O.size t.st.order)
      (List.length nodes);
  let seen = Hashtbl.create 256 in
  List.iter
    (fun n ->
      let i =
        match id_of_node t n with
        | i -> i
        | exception Not_found -> fail "node %d has no identifier" n.Dom.serial
      in
      if Hashtbl.mem seen i then fail "duplicate identifier %s" (id_to_string i);
      Hashtbl.replace seen i ();
      (match node_of_id t i with
      | Some m when m == n -> ()
      | Some m when Dom.equal m n ->
        fail "identifier %s resolves to a stale version" (id_to_string i)
      | _ -> fail "identifier %s does not resolve back" (id_to_string i));
      (* rparent must agree with the DOM; the numbered root may carry a
         parent outside the numbered tree (e.g. the #document node). *)
      let dom_parent = if Dom.equal n (root t) then None else n.Dom.parent in
      match (rparent t i, dom_parent) with
      | None, None -> ()
      | Some p, Some dp ->
        let expected = id_of_node t dp in
        if not (id_equal p expected) then
          fail "rparent %s = %s but DOM parent is %s" (id_to_string i)
            (id_to_string p) (id_to_string expected)
      | Some _, None -> fail "rparent found a parent for the root"
      | None, Some _ -> fail "rparent lost the parent of %s" (id_to_string i))
    nodes

let enumeration_area t i = fst (pos t i)

(* The order index against the tree: keys ascend in preorder, the key
   and the preorder position convert into each other, and each node's
   extent ends at its last descendant's key. *)
let check_order t =
  let fail fmt = Format.kasprintf failwith fmt in
  let o = t.st.order in
  let prev = ref (-1) and pos = ref 0 in
  let rec walk n =
    let k = O.key o n in
    if k <= !prev then fail "order key of node %d is out of preorder" n.Dom.serial;
    if O.node o k != n then fail "order key of node %d holds a stale version" n.Dom.serial;
    if O.rank o k <> !pos || O.nth o !pos <> k then
      fail "node %d at preorder position %d has rank %d" n.Dom.serial !pos
        (O.rank o k);
    prev := k;
    incr pos;
    List.iter walk n.Dom.children;
    if O.last o k <> !prev then
      fail "extent of node %d ends at key %d, its last descendant is %d"
        n.Dom.serial (O.last o k) !prev
  in
  walk (root t)

(* Deep invariant checker, used as the recovery postcondition: everything
   check_consistency verifies, plus K-table/area agreement, fan-out
   adequacy, local-index slot chains, and the document order of the
   (global, local) enumeration keys. *)
let check t =
  let fail fmt = Format.kasprintf failwith fmt in
  check_consistency t;
  check_order t;
  (* K rows <-> areas, and each row's fields against the area root. *)
  let rows = Ktable.rows t.st.ktable in
  if List.length rows <> IMap.cardinal t.st.areas then
    fail "K has %d rows for %d area roots" (List.length rows)
      (IMap.cardinal t.st.areas);
  List.iter
    (fun row ->
      if row.Ktable.fanout < 1 then
        fail "area %d has fan-out %d < 1" row.Ktable.global row.Ktable.fanout;
      match area_root_node t row.Ktable.global with
      | None -> fail "K row %d has no area root node" row.Ktable.global
      | Some r ->
        let ri = id_of_node t r in
        if not ri.is_root then
          fail "area root of %d carries a non-root identifier %s"
            row.Ktable.global (id_to_string ri);
        if ri.global <> row.Ktable.global then
          fail "area root of %d carries global %d" row.Ktable.global ri.global;
        let leaf_index = if row.Ktable.global = 1 then 1 else ri.local in
        if leaf_index <> row.Ktable.root_local then
          fail "K row %d records root_local %d but the root's leaf index is %d"
            row.Ktable.global row.Ktable.root_local leaf_index)
    rows;
  (* Occupancy tables: only known areas, locals in range, and every
     occupied slot reachable from the area root through occupied parent
     slots (the chain rparent will walk). *)
  IMap.iter
    (fun g a ->
      if not (Ktable.mem t.st.ktable g) then
        fail "area %d is occupied but has no K row" g;
      let k = Ktable.fanout t.st.ktable g in
      Array.iter
        (fun l ->
          if l < 1 then fail "local index %d out of range in area %d" l g;
          if l >= 2 then begin
            let pslot = ((l - 2) / k) + 1 in
            if find_local a pslot < 0 then
              fail "slot %d of area %d is occupied but parent slot %d is empty"
                l g pslot
          end)
        a.locals)
    t.st.areas;
  (* Fan-out adequacy: no node's degree exceeds the fan-out of the area in
     which its children are enumerated. *)
  List.iter
    (fun n ->
      let g, _ = child_context t n in
      let k = Ktable.fanout t.st.ktable g in
      if Dom.degree n > k then
        fail "node %s has %d children but area %d enumerates with fan-out %d"
          (id_to_string (id_of_node t n))
          (Dom.degree n) g k)
    (all_nodes t);
  (* Document order of the (global, local) keys: identifier comparison must
     rank the nodes exactly as DOM preorder does. *)
  let rec ordered = function
    | a :: (b :: _ as rest) ->
      let ia = id_of_node t a and ib = id_of_node t b in
      if doc_order t ia ib >= 0 then
        fail "identifiers %s and %s are out of document order"
          (id_to_string ia) (id_to_string ib);
      ordered rest
    | _ -> ()
  in
  ordered (all_nodes t)

(* O(1): the copy shares every table and the tree with [t], and from now
   on neither edits the shared tree in place. *)
let clone t =
  t.exclusive <- false;
  { kappa = t.kappa; st = t.st; exclusive = false }

(* Restore runs the kernel [number] runs over a stored frame: the cut,
   each area's frame slot and its K fan-out — all that the identifiers
   are a function of (Definition 3).  It accepts them only if they
   describe a numbering: kappa at least 1, every slot below kappa and
   ascending along frame siblings (so globals are distinct and ordered
   as the document is), every fan-out at least the largest degree its
   area enumerates, and no index past the native int.  What passes is a
   numbering [check] accepts. *)
let restore ~kappa ~cut ~slots ~fanouts pre =
  if kappa < 1 then restore_error "kappa %d < 1" kappa;
  let frame, lay = Frame.of_cut_bits pre cut in
  let count = Array.length lay.aroot in
  if Array.length slots <> count || Array.length fanouts <> count then
    restore_error "%d frame slots and %d fan-outs for %d areas"
      (Array.length slots) (Array.length fanouts) count;
  for b = 0 to count - 1 do
    let at = lay.aroot.(b) in
    if fanouts.(b) < lay.fanout.(b) then
      restore_error "the area rooted at preorder position %d has fan-out %d \
                     below a degree of %d" at fanouts.(b) lay.fanout.(b);
    if b > 0 then begin
      if slots.(b) < 0 || slots.(b) >= kappa then
        restore_error "the area rooted at preorder position %d has frame slot \
                       %d, kappa is %d" at slots.(b) kappa;
      let p = lay.fprev.(b) in
      if p >= 0 && slots.(p) >= slots.(b) then
        restore_error "the area rooted at preorder position %d has frame slot \
                       %d, its previous frame sibling %d" at slots.(b) slots.(p)
    end
  done;
  build frame { lay with fslot = slots } ~kappa ~fan:fanouts
    ~overflow:(fun at ->
      restore_error "an index of the area rooted at preorder position %d \
                     overflows a native int" at)
