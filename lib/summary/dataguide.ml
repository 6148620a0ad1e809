module Dom = Rxml.Dom

type node = {
  label : string;
  mutable count : int;  (* document nodes whose label path ends here *)
  mutable kids : node list;  (* children, latest first occurrence first *)
}

type t = {
  (* A virtual root above the top-level element labels: a document may hold
     several top-level elements (rank-0 inserts), and the virtual root gives
     each its own guide child instead of conflating them. *)
  root : node;
  mutable doc_nodes : int;
  mutable fp : int option;  (* cached structure fingerprint *)
}

type cursor = node

let make_node label = { label; count = 0; kids = [] }

(* Labels are compared by pointer first: a parse shares one string per
   tag name, so a hit rarely reads the bytes. *)
let find_child g label =
  List.find_opt (fun c -> c.label == label || String.equal c.label label) g.kids

let add_child g label =
  let c = make_node label in
  g.kids <- c :: g.kids;
  c

let child_of g label =
  match find_child g label with Some c -> c | None -> add_child g label

let build doc_root =
  let t = { root = make_node ""; doc_nodes = 0; fp = None } in
  let rec go guide n =
    t.doc_nodes <- t.doc_nodes + 1;
    guide.count <- guide.count + 1;
    List.iter
      (fun c -> if Dom.is_element c then go (child_of guide (Dom.tag c)) c)
      n.Dom.children
  in
  if Dom.is_element doc_root then go (child_of t.root (Dom.tag doc_root)) doc_root
  else
    List.iter
      (fun c -> if Dom.is_element c then go (child_of t.root (Dom.tag c)) c)
      doc_root.Dom.children;
  t

let document_nodes t = t.doc_nodes

let rec count_guide n = List.fold_left (fun acc c -> acc + count_guide c) 1 n.kids

let guide_nodes t = count_guide t.root - 1  (* the virtual root is not a path *)

let find t path =
  match path with
  | [] -> None
  | _ ->
    let rec go guide = function
      | [] -> Some guide
      | l :: rest -> (
        match find_child guide l with Some c -> go c rest | None -> None)
    in
    go t.root path

let mem t path = find t path <> None

let count t path = match find t path with Some g -> g.count | None -> 0

let child_labels t path =
  match find t path with
  | Some g -> List.rev_map (fun c -> c.label) g.kids
  | None -> []

let paths t =
  let acc = ref [] in
  let rec go prefix n =
    let prefix = n.label :: prefix in
    acc := List.rev prefix :: !acc;
    List.iter (go prefix) (List.rev n.kids)
  in
  List.iter (go []) (List.rev t.root.kids);
  List.rev !acc

(* ------------------------------------------------------------------ *)
(* Planner support: cursors, cloning, fingerprint, incremental edits   *)
(* ------------------------------------------------------------------ *)

let cursor t = t.root
let cursor_label c = c.label
let cursor_count c = c.count
let cursor_children c = List.rev c.kids

let clone t =
  let rec cp n = { label = n.label; count = n.count; kids = List.map cp n.kids } in
  { root = cp t.root; doc_nodes = t.doc_nodes; fp = t.fp }

(* Structure-only hash: label-path set, independent of counts and of the
   order nodes were discovered (children folded in sorted label order), so
   an incrementally maintained guide and a fresh build of the same
   structure always agree. *)
let rec fp_node n =
  let kids = List.sort (fun a b -> compare a.label b.label) n.kids in
  List.fold_left
    (fun acc c -> (acc * 1000003) lxor Hashtbl.hash (c.label, fp_node c))
    17 kids

let fingerprint t =
  match t.fp with
  | Some h -> h
  | None ->
    let h = fp_node t.root land max_int in
    t.fp <- Some h;
    h

let add_path t path =
  if path = [] then invalid_arg "Dataguide.add_path: empty path";
  let rec go guide = function
    | [] ->
      guide.count <- guide.count + 1;
      t.doc_nodes <- t.doc_nodes + 1
    | l :: rest ->
      let child =
        match find_child guide l with
        | Some c -> c
        | None ->
          t.fp <- None;  (* new label path: structure changed *)
          add_child guide l
      in
      go child rest
  in
  go t.root path

let remove_path t path =
  match find t path with
  | Some g when g.count > 0 ->
    g.count <- g.count - 1;
    t.doc_nodes <- t.doc_nodes - 1;
    true
  | _ -> false

let prune t =
  let pruned = ref false in
  (* A guide node is dead when no document node ends there and every child
     is dead; dead subtrees are unlinked (the virtual root always stays). *)
  let rec go n =
    let live = List.filter (fun c -> not (go c)) n.kids in
    if List.compare_lengths live n.kids <> 0 then begin
      pruned := true;
      n.kids <- live
    end;
    n.count = 0 && n.kids = []
  in
  ignore (go t.root);
  if !pruned then t.fp <- None

let pp ppf t =
  let rec go indent n =
    Format.fprintf ppf "%s%s (%d)@," indent n.label n.count;
    List.iter (go (indent ^ "  ")) (List.rev n.kids)
  in
  Format.fprintf ppf "@[<v>";
  List.iter (go "") (List.rev t.root.kids);
  Format.fprintf ppf "@]"
