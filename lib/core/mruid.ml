module Dom = Rxml.Dom
module U = Uid.Over_int

type comp = { index : int; is_root : bool }
type id = { top : int; comps : comp list }

let pp_id ppf i =
  Format.fprintf ppf "{%d" i.top;
  List.iter (fun c -> Format.fprintf ppf ", (%d, %b)" c.index c.is_root) i.comps;
  Format.fprintf ppf "}"

let id_to_string i = Format.asprintf "%a" pp_id i
let id_equal (a : id) (b : id) = a = b

(* Split an identifier into its prefix (the id of the relevant area one
   level up) and its last component. *)
let split i =
  match List.rev i.comps with
  | [] -> invalid_arg "Mruid: top-level identifier has no component"
  | c :: rest -> ({ top = i.top; comps = List.rev rest }, c)

let extend i index is_root = { top = i.top; comps = i.comps @ [ { index; is_root } ] }

type krow = { root_local : int; fanout : int }

(* One partitioned level: level 0 is the document; each further level's
   tree is a mirror of the previous level's frame. *)
type level = {
  frame : Frame.t;
  ktable : (id, krow) Hashtbl.t;  (* area identity (one level up) -> row *)
  lid_of : (int, id) Hashtbl.t;  (* node serial (this level's tree) -> id *)
  node_at : (id, (int, Dom.t) Hashtbl.t) Hashtbl.t;
      (* area identity -> (local -> node); index 1 is the area root *)
  mirror_of : (int, Dom.t) Hashtbl.t;  (* area-root serial -> next-level node *)
  orig_of : (int, Dom.t) Hashtbl.t;
}

type t = {
  doc_root : Dom.t;
  levels : level array;  (* levels.(0) = document level *)
  mutable top_k : int;
  mutable top_ids : (int, int) Hashtbl.t;  (* top-tree serial -> original UID *)
  mutable top_nodes : (int, Dom.t) Hashtbl.t;
}

let levels t = Array.length t.levels + 1

(* ------------------------------------------------------------------ *)
(* Construction                                                        *)
(* ------------------------------------------------------------------ *)

let mirror_frame frame =
  let mirror_of = Hashtbl.create 64 in
  let orig_of = Hashtbl.create 64 in
  let rec go orig =
    let m = Dom.element "frame-node" in
    Hashtbl.replace mirror_of orig.Dom.serial m;
    Hashtbl.replace orig_of m.Dom.serial orig;
    List.iter (fun c -> Dom.append_child m (go c)) (Frame.frame_children frame orig);
    m
  in
  let root = go (Frame.root frame) in
  (root, mirror_of, orig_of)

let build ?(max_levels = 7) ?max_area_size ?(top_size = 64) doc_root =
  if max_levels < 2 then invalid_arg "Mruid.build: max_levels < 2";
  (* The top tree is enumerated by the plain UID, whose magnitude is
     k^depth: recursion may only stop once that provably fits a native
     integer (a small node count is not enough — a short, branching frame
     chain can still blow past 63 bits). *)
  let bits v =
    let rec go acc v = if v = 0 then acc else go (acc + 1) (v lsr 1) in
    go 0 v
  in
  let top_enumerable tree =
    let max_fanout =
      Dom.fold_preorder (fun acc n -> max acc (Dom.degree n)) 1 tree
    in
    let rec depth n =
      List.fold_left (fun acc c -> max acc (1 + depth c)) 0 n.Dom.children
    in
    (depth tree + 1) * bits (max_fanout + 1) <= 58
  in
  (* Phase 1: the mirror chain of partitions, bottom level first.  [depth]
     counts the levels so far (the tree itself is one); each partition
     adds one. *)
  let rec chain tree depth =
    if (Dom.size tree <= top_size && top_enumerable tree)
       || depth >= max_levels
    then ([], tree)
    else begin
      let frame = Frame.partition ?max_area_size tree in
      if Frame.area_count frame <= 1 then ([], tree)
      else begin
        let mroot, mirror_of, orig_of = mirror_frame frame in
        let lv =
          {
            frame;
            ktable = Hashtbl.create 64;
            lid_of = Hashtbl.create 256;
            node_at = Hashtbl.create 256;
            mirror_of;
            orig_of;
          }
        in
        let rest, top = chain mroot (depth + 1) in
        (lv :: rest, top)
      end
    end
  in
  let level_list, top_tree = chain doc_root 1 in
  let levels = Array.of_list level_list in
  (* Phase 2: number the top tree with the original UID (may raise
     Uid.Overflow when max_levels was too small for the document). *)
  let top_lb = U.label top_tree in
  let t =
    {
      doc_root;
      levels;
      top_k = top_lb.U.k;
      top_ids = top_lb.U.id_of;
      top_nodes = top_lb.U.node_of;
    }
  in
  (* Phase 3: assign identifiers top-down.  [id_at_next li n] is the id of
     a node of level li+1's tree (or of the top tree). *)
  let id_at_next li n =
    if li + 1 >= Array.length levels then
      { top = Hashtbl.find t.top_ids n.Dom.serial; comps = [] }
    else Hashtbl.find levels.(li + 1).lid_of n.Dom.serial
  in
  for li = Array.length levels - 1 downto 0 do
    let lv = levels.(li) in
    let tree_root = Frame.root lv.frame in
    List.iter
      (fun r ->
        let gid = id_at_next li (Hashtbl.find lv.mirror_of r.Dom.serial) in
        let k = max 1 (Frame.area_fanout lv.frame r) in
        let inner = Hashtbl.create 32 in
        Hashtbl.replace lv.node_at gid inner;
        Hashtbl.replace inner 1 r;
        (* Enumerate the area exactly as Ruid2 does. *)
        let rec go local n =
          if not (Dom.equal n r) then begin
            Hashtbl.replace inner local n;
            let i =
              if Frame.is_area_root lv.frame n then
                extend
                  (id_at_next li (Hashtbl.find lv.mirror_of n.Dom.serial))
                  local true
              else extend gid local false
            in
            Hashtbl.replace lv.lid_of n.Dom.serial i
          end;
          if Dom.equal n r || not (Frame.is_area_root lv.frame n) then
            List.iteri (fun j c -> go (U.child ~k local j) c) n.Dom.children
        in
        go 1 r;
        (* The tree root's own identifier: root of the whole chain. *)
        if Dom.equal r tree_root then
          Hashtbl.replace lv.lid_of r.Dom.serial (extend gid 1 true);
        let root_local =
          if Dom.equal r tree_root then 1
          else (split (Hashtbl.find lv.lid_of r.Dom.serial) |> snd).index
        in
        Hashtbl.replace lv.ktable gid { root_local; fanout = k })
      (Frame.area_roots lv.frame)
  done;
  t

(* ------------------------------------------------------------------ *)
(* Derivation routines                                                 *)
(* ------------------------------------------------------------------ *)

(* [rparent_at t li i]: parent of [i], an identifier of a node of level
   [li]'s tree ([li] = number of levels above the document at which the
   identifier lives; li = Array.length levels means the top tree). *)
let rec rparent_at t li (i : id) : id option =
  if li >= Array.length t.levels then
    (* Top tree: the original UID, formula (1). *)
    if i.top = 1 then None
    else Some { top = ((i.top - 2) / t.top_k) + 1; comps = [] }
  else begin
    let p, c = split i in
    let g_opt = if c.is_root then rparent_at t (li + 1) p else Some p in
    match g_opt with
    | None -> None (* the level's tree root *)
    | Some g ->
      let row = Hashtbl.find t.levels.(li).ktable g in
      let l = ((c.index - 2) / row.fanout) + 1 in
      if l = 1 then begin
        let row_g = Hashtbl.find t.levels.(li).ktable g in
        Some (extend g row_g.root_local true)
      end
      else Some (extend g l false)
  end

let rparent t i = rparent_at t 0 i

let rancestors t i =
  let rec go acc i =
    match rparent t i with None -> List.rev acc | Some p -> go (p :: acc) p
  in
  go [] i

(* Enumeration position of a node at level li: (area identity, local). *)
let pos_at t li (i : id) =
  let p, c = split i in
  if not c.is_root then (p, c.index)
  else
    match rparent_at t (li + 1) p with
    | Some g -> (g, c.index)
    | None -> (p, 1)

let rec relationship_at t li a b =
  if li >= Array.length t.levels then begin
    (* Top tree: plain UID relation. *)
    U.relation ~k:t.top_k a.top b.top
  end
  else if id_equal a b then Rel.Self
  else begin
    let ga, la = pos_at t li a and gb, lb = pos_at t li b in
    if id_equal ga gb then begin
      let k = (Hashtbl.find t.levels.(li).ktable ga).fanout in
      match U.relation ~k la lb with
      | Rel.Self -> assert false
      | r -> r
    end
    else begin
      match relationship_at t (li + 1) ga gb with
      | Rel.Self -> assert false
      | Rel.Before -> Rel.Before
      | Rel.After -> Rel.After
      | Rel.Ancestor ->
        (* Frame child of ga on the path towards gb, one level up. *)
        let rec climb g =
          match rparent_at t (li + 1) g with
          | Some p when id_equal p ga -> g
          | Some p -> climb p
          | None -> assert false
        in
        let theta = climb gb in
        let lstar = (Hashtbl.find t.levels.(li).ktable theta).root_local in
        let k = (Hashtbl.find t.levels.(li).ktable ga).fanout in
        (match U.relation ~k la lstar with
        | Rel.Self | Rel.Ancestor -> Rel.Ancestor
        | Rel.Before -> Rel.Before
        | Rel.After -> Rel.After
        | Rel.Descendant -> assert false)
      | Rel.Descendant -> Rel.inverse (relationship_at t li b a)
    end
  end

let relationship t a b = relationship_at t 0 a b

(* ------------------------------------------------------------------ *)
(* Node/identifier maps                                                *)
(* ------------------------------------------------------------------ *)

let id_of_node t n =
  if Array.length t.levels = 0 then
    { top = Hashtbl.find t.top_ids n.Dom.serial; comps = [] }
  else Hashtbl.find t.levels.(0).lid_of n.Dom.serial

let node_of_id t i =
  if Array.length t.levels = 0 then begin
    if i.comps <> [] then None else Hashtbl.find_opt t.top_nodes i.top
  end
  else begin
    match
      let lv = t.levels.(0) in
      let g, l = pos_at t 0 i in
      match Hashtbl.find_opt lv.node_at g with
      | None -> None
      | Some inner -> (
        match Hashtbl.find_opt inner l with
        | Some n when id_equal (Hashtbl.find lv.lid_of n.Dom.serial) i -> Some n
        | Some _ | None -> None)
    with
    | result -> result
    | exception (Not_found | Invalid_argument _) -> None
  end

let max_component_bits t =
  let bits v =
    let rec go acc v = if v = 0 then acc else go (acc + 1) (v lsr 1) in
    go 0 v
  in
  let of_id i = List.fold_left (fun acc c -> max acc (bits c.index)) (bits i.top) i.comps in
  Array.fold_left
    (fun acc lv -> Hashtbl.fold (fun _ i m -> max m (of_id i)) lv.lid_of acc)
    0 t.levels

let total_label_bits t =
  let bits v =
    let rec go acc v = if v = 0 then acc else go (acc + 1) (v lsr 1) in
    max 1 (go 0 v)
  in
  let of_id i =
    List.fold_left (fun acc c -> acc + bits c.index + 1) (bits i.top) i.comps
  in
  if Array.length t.levels = 0 then
    Hashtbl.fold (fun _ theta acc -> acc + bits theta) t.top_ids 0
  else
    Hashtbl.fold (fun _ i acc -> acc + of_id i) t.levels.(0).lid_of 0

let addressable ~e ~levels =
  Bignum.Bignat.pow (Bignum.Bignat.of_int e) levels

let area_count t =
  Array.fold_left (fun acc lv -> acc + Hashtbl.length lv.ktable) 0 t.levels

let aux_memory_words t =
  (* Each K row stores its key components plus two integers. *)
  Array.fold_left
    (fun acc lv ->
      Hashtbl.fold
        (fun key _ acc -> acc + 2 + 1 + (2 * List.length key.comps))
        lv.ktable acc)
    1 t.levels

(* ------------------------------------------------------------------ *)
(* Structural update (document level only; the frame, and with it every
   area identity and K key, is update-stable — Section 3.2)              *)
(* ------------------------------------------------------------------ *)

(* Identity of the area rooted at document-level area root [r]. *)
let area_gid t r =
  let lv = t.levels.(0) in
  let m = Hashtbl.find lv.mirror_of r.Dom.serial in
  if Array.length t.levels = 1 then
    { top = Hashtbl.find t.top_ids m.Dom.serial; comps = [] }
  else Hashtbl.find t.levels.(1).lid_of m.Dom.serial

(* Re-enumerate one document-level area; returns how many pre-existing
   nodes changed identifier. *)
let renumber_area t r =
  let lv = t.levels.(0) in
  let gid = area_gid t r in
  let k = (Hashtbl.find lv.ktable gid).fanout in
  let inner = Hashtbl.create 32 in
  Hashtbl.replace inner 1 r;
  let changed = ref 0 in
  let rec go local n =
    if not (Dom.equal n r) then begin
      Hashtbl.replace inner local n;
      let i =
        if Frame.is_area_root lv.frame n then extend (area_gid t n) local true
        else extend gid local false
      in
      (match Hashtbl.find_opt lv.lid_of n.Dom.serial with
      | Some old when id_equal old i -> ()
      | Some old ->
        incr changed;
        let _, oc = split old in
        if oc.is_root then begin
          (* The joint moved: only its K row's root_local changes; the
             child area's own nodes keep their identifiers. *)
          let cg = area_gid t n in
          let crow = Hashtbl.find lv.ktable cg in
          Hashtbl.replace lv.ktable cg { crow with root_local = local }
        end
      | None -> ());
      Hashtbl.replace lv.lid_of n.Dom.serial i
    end;
    if Dom.equal n r || not (Frame.is_area_root lv.frame n) then
      List.iteri (fun j c -> go (U.child ~k local j) c) n.Dom.children
  in
  go 1 r;
  Hashtbl.replace lv.node_at gid inner;
  !changed

(* Degenerate un-partitioned document: behave as the original UID. *)
let full_relabel_diff ?skip t =
  let old_labels = t.top_ids in
  let lb = U.label t.doc_root in
  t.top_k <- lb.U.k;
  t.top_ids <- lb.U.id_of;
  t.top_nodes <- lb.U.node_of;
  Hashtbl.fold
    (fun serial old acc ->
      if skip = Some serial then acc
      else
        match Hashtbl.find_opt t.top_ids serial with
        | Some fresh when fresh = old -> acc
        | Some _ -> acc + 1
        | None -> acc)
    old_labels 0

let insert_node ?(slack = 0) t ~parent ~pos node =
  if node.Dom.children <> [] then
    invalid_arg "Mruid.insert_node: only leaf insertion is supported";
  if Array.length t.levels = 0 then begin
    Dom.insert_child parent ~pos node;
    full_relabel_diff ~skip:node.Dom.serial t
  end
  else begin
    let lv = t.levels.(0) in
    let r = Frame.own_area_root lv.frame parent in
    let gid = area_gid t r in
    let row = Hashtbl.find lv.ktable gid in
    Dom.insert_child parent ~pos node;
    let needed = Dom.degree parent in
    if needed > row.fanout then
      Hashtbl.replace lv.ktable gid { row with fanout = needed + slack };
    renumber_area t r
  end

let delete_subtree t node =
  if Dom.equal node t.doc_root then
    invalid_arg "Mruid.delete_subtree: cannot delete the tree root";
  let parent =
    match node.Dom.parent with
    | Some p -> p
    | None -> invalid_arg "Mruid.delete_subtree: detached node"
  in
  if Array.length t.levels = 0 then begin
    Dom.remove_child parent node;
    full_relabel_diff t
  end
  else begin
    let lv = t.levels.(0) in
    let r = Frame.own_area_root lv.frame parent in
    List.iter
      (fun x ->
        Hashtbl.remove lv.lid_of x.Dom.serial;
        if Frame.is_area_root lv.frame x then begin
          let gx = area_gid t x in
          Hashtbl.remove lv.ktable gx;
          Hashtbl.remove lv.node_at gx;
          Frame.uncut lv.frame x
        end)
      (Dom.preorder node);
    Dom.remove_child parent node;
    renumber_area t r
  end

let check_consistency t =
  let fail fmt = Format.kasprintf failwith fmt in
  Dom.iter_preorder
    (fun n ->
      let i = id_of_node t n in
      (match node_of_id t i with
      | Some m when Dom.equal m n -> ()
      | _ -> fail "id %s does not resolve back" (id_to_string i));
      let dom_parent =
        if Dom.equal n t.doc_root then None else n.Dom.parent
      in
      match (rparent t i, dom_parent) with
      | None, None -> ()
      | Some p, Some dp ->
        if not (id_equal p (id_of_node t dp)) then
          fail "rparent %s = %s but DOM parent is %s" (id_to_string i)
            (id_to_string p)
            (id_to_string (id_of_node t dp))
      | Some _, None -> fail "root got a parent"
      | None, Some _ -> fail "lost a parent at %s" (id_to_string i))
    t.doc_root
