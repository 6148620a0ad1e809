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

(* Greedy top-down partition: grow the current area in document order; when
   it would exceed the size budget — or a path would exceed the depth
   budget — the next child starts a new area (and is still counted as a
   leaf of the current one, per Definition 2). *)
let greedy_cut ~max_area_size ~max_area_depth root =
  let cut = Hashtbl.create 64 in
  Hashtbl.replace cut root.Dom.serial ();
  let rec fill_area area_root =
    (* budget counts enumerated nodes: the area root plus members. *)
    let budget = ref (max_area_size - 1) in
    let next_areas = ref [] in
    let rec go depth n =
      List.iter
        (fun c ->
          decr budget;
          if !budget >= 0 && depth < max_area_depth then go (depth + 1) c
          else begin
            (* [c] still consumed a slot as a leaf of this area, but its
               own children start a fresh area rooted at [c]. *)
            Hashtbl.replace cut c.Dom.serial ();
            next_areas := c :: !next_areas
          end)
        n.Dom.children
    in
    go 1 area_root;
    List.iter fill_area (List.rev !next_areas)
  in
  fill_area root;
  { root; cut; dropped = ISet.empty }

let adjust_fanout t =
  let tree_fanout =
    Dom.fold_preorder (fun acc n -> max acc (Dom.degree n)) 1 t.root
  in
  (* One pass computes every area root's frame children; promotions then
     touch only the offender's children, so the whole adjustment is
     near-linear instead of rescanning the tree per promotion. *)
  let children : (int, Dom.t list ref) Hashtbl.t = Hashtbl.create 64 in
  let kids r =
    match Hashtbl.find_opt children r.Dom.serial with
    | Some l -> l
    | None ->
      let l = ref [] in
      Hashtbl.replace children r.Dom.serial l;
      l
  in
  let rec collect area_root n =
    List.iter
      (fun c ->
        if is_area_root t c then begin
          let l = kids area_root in
          l := c :: !l;
          collect c c
        end
        else collect area_root c)
      n.Dom.children
  in
  collect t.root t.root;
  (* Path from a frame child up to (excluding) its frame parent — bounded
     by the area depth. *)
  let path_to_parent ~stop n =
    let rec go acc n =
      match n.Dom.parent with
      | Some p when Dom.equal p stop -> acc
      | Some p -> go (p :: acc) p
      | None -> assert false
    in
    go [] n
  in
  let worklist = Queue.create () in
  List.iter
    (fun r ->
      match Hashtbl.find_opt children r.Dom.serial with
      | Some l when List.length !l > tree_fanout -> Queue.add r worklist
      | _ -> ())
    (area_roots t);
  while not (Queue.is_empty worklist) do
    let u = Queue.pop worklist in
    let l = kids u in
    if List.length !l > tree_fanout then begin
      (* Group u's frame children by the T-child of u they sit under. *)
      let groups = Hashtbl.create 8 in
      List.iter
        (fun fc ->
          let branch =
            match path_to_parent ~stop:u fc with
            | b :: _ -> b
            | [] -> fc (* fc is a direct T-child of u *)
          in
          let cur =
            match Hashtbl.find_opt groups branch.Dom.serial with
            | Some (_, members) -> members
            | None -> []
          in
          Hashtbl.replace groups branch.Dom.serial (branch, fc :: cur))
        !l;
      (* Largest group wins; ties break on the branch's position among u's
         children.  Never on hash order of serials — that would make the
         cut depend on node-allocation history, so two parses of the same
         bytes could partition (and number) differently. *)
      let best =
        Hashtbl.fold (fun _ bg acc -> bg :: acc) groups []
        |> List.filter (fun (_, g) -> List.length g >= 2)
        |> List.sort (fun (b1, g1) (b2, g2) ->
               match compare (List.length g2) (List.length g1) with
               | 0 -> compare (Dom.child_index b1) (Dom.child_index b2)
               | c -> c)
        |> function
        | [] -> None
        | (_, g) :: _ -> Some g
      in
      match best with
      | None ->
        (* Impossible while the fan-out exceeds the tree's: some branch
           must hold two frame children. *)
        assert false
      | Some group ->
        (* Promote the LCA (within u's area) of the group. *)
        let paths = List.map (fun fc -> path_to_parent ~stop:u fc @ [ fc ]) group in
        let rec common prefix ps =
          let heads = List.map (function x :: _ -> Some x | [] -> None) ps in
          match heads with
          | Some h :: rest
            when List.for_all
                   (function Some x -> Dom.equal x h | None -> false)
                   rest ->
            common (h :: prefix)
              (List.map (function _ :: tl -> tl | [] -> []) ps)
          | _ -> prefix
        in
        let lca =
          match common [] paths with
          | lca :: _ -> lca
          | [] -> assert false
        in
        assert (not (Hashtbl.mem t.cut lca.Dom.serial));
        Hashtbl.replace t.cut lca.Dom.serial ();
        (* Move the group under the new frame node. *)
        l := List.filter (fun fc -> not (List.exists (Dom.equal fc) group)) !l;
        l := lca :: !l;
        let ll = kids lca in
        ll := group;
        if List.length !l > tree_fanout then Queue.add u worklist;
        if List.length group > tree_fanout then Queue.add lca worklist
    end
  done

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

let partition ?(max_area_size = default_area_size) ?max_area_depth
    ?(adjust = true) root =
  if max_area_size < 2 then invalid_arg "Frame.partition: max_area_size < 2";
  let max_area_depth =
    match max_area_depth with
    | Some d ->
      if d < 1 then invalid_arg "Frame.partition: max_area_depth < 1";
      d
    | None ->
      let max_fanout =
        Dom.fold_preorder (fun acc n -> max acc (Dom.degree n)) 1 root
      in
      default_area_depth ~max_fanout
  in
  let t = greedy_cut ~max_area_size ~max_area_depth root in
  if adjust then adjust_fanout t;
  t

(* The greedy cut as an online algorithm over a preorder enter/leave walk:
   the decision for a node depends only on the budget its enumerating area
   has already spent on earlier nodes (all before it in document order) and
   its depth inside that area, so a stack of open areas suffices — the cut
   set is computed during a single streaming pass, with no tree in hand.
   Produces exactly the cut of [greedy_cut] (tested equivalent). *)
module Cut_builder = struct
  type area = { mutable budget : int }

  type builder = {
    max_area_size : int;
    max_area_depth : int;
    cut : (int, unit) Hashtbl.t;
    (* per open node: the area enumerating its children and the greedy
       depth those children are checked at *)
    mutable stack : (area * int) list;
    mutable root_serial : int;
  }

  let create ?(max_area_size = default_area_size) ~max_area_depth () =
    if max_area_size < 2 then
      invalid_arg "Frame.Cut_builder.create: max_area_size < 2";
    if max_area_depth < 1 then
      invalid_arg "Frame.Cut_builder.create: max_area_depth < 1";
    {
      max_area_size;
      max_area_depth;
      cut = Hashtbl.create 64;
      stack = [];
      root_serial = -1;
    }

  let enter b ~serial =
    match b.stack with
    | [] ->
      (* tree root: always an area root, children checked at greedy depth 1 *)
      Hashtbl.replace b.cut serial ();
      b.root_serial <- serial;
      b.stack <- ({ budget = b.max_area_size - 1 }, 1) :: b.stack;
      true
    | (area, gdepth) :: _ ->
      area.budget <- area.budget - 1;
      if area.budget >= 0 && gdepth < b.max_area_depth then begin
        b.stack <- (area, gdepth + 1) :: b.stack;
        false
      end
      else begin
        (* the node still consumed a slot as a leaf of the upper area, but
           its own children start a fresh area rooted here *)
        Hashtbl.replace b.cut serial ();
        b.stack <- ({ budget = b.max_area_size - 1 }, 1) :: b.stack;
        true
      end

  let leave b =
    match b.stack with
    | _ :: rest -> b.stack <- rest
    | [] -> invalid_arg "Frame.Cut_builder.leave: empty stack"

  let finish b ~root =
    if b.stack <> [] then
      invalid_arg "Frame.Cut_builder.finish: unbalanced enter/leave";
    if root.Dom.serial <> b.root_serial then
      invalid_arg "Frame.Cut_builder.finish: root is not the first entered node";
    { root; cut = b.cut; dropped = ISet.empty }
end

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
          (* Induced subtree: every member's parent is in the same area
             (or the member is the area root). *)
          if not (Dom.equal m r) then
            match m.Dom.parent with
            | None -> fail "non-root member without parent"
            | Some p ->
              if not (Dom.equal p r || List.exists (Dom.equal p) members) then
                fail "area is not an induced subtree")
        members)
    (area_roots t);
  (* Coverage: every node except the tree root appears exactly once. *)
  Dom.iter_preorder
    (fun n ->
      if not (Dom.equal n t.root) && not (Hashtbl.mem seen n.Dom.serial) then
        fail "node %d not enumerated in any area" n.Dom.serial)
    t.root

let check = check_invariants
