type t = {
  serial : int;
  mutable kind : kind;
  mutable parent : t option;
  mutable children : t list;
}

and kind =
  | Document
  | Element of { mutable tag : string; mutable attrs : (string * string) list }
  | Text of string
  | Comment of string
  | Pi of string * string

(* Serials are process-global and several domains build trees at once (a
   commit pipeline cloning a snapshot while a writer clones or inserts), so
   the counter is atomic: a lost update would hand one serial to two nodes
   of a tree, and every serial-keyed table over that tree would conflate
   them. *)
let next_serial =
  let counter = Atomic.make 0 in
  fun () -> 1 + Atomic.fetch_and_add counter 1

let make kind = { serial = next_serial (); kind; parent = None; children = [] }

let document () = make Document
let element ?(attrs = []) tag = make (Element { tag; attrs })
let text s = make (Text s)
let comment s = make (Comment s)
let pi target data = make (Pi (target, data))

let tag n = match n.kind with Element e -> e.tag | Document | Text _ | Comment _ | Pi _ -> ""

let attr n name =
  match n.kind with
  | Element e -> List.assoc_opt name e.attrs
  | Document | Text _ | Comment _ | Pi _ -> None

let set_attr n name value =
  match n.kind with
  | Element e -> e.attrs <- (name, value) :: List.remove_assoc name e.attrs
  | Document | Text _ | Comment _ | Pi _ ->
    invalid_arg "Dom.set_attr: not an element"

let is_element n = match n.kind with Element _ -> true | _ -> false
let is_text n = match n.kind with Text _ -> true | _ -> false

let equal a b = a.serial = b.serial

let append_child parent child =
  (match child.parent with
  | Some _ -> invalid_arg "Dom.append_child: child already attached"
  | None -> ());
  child.parent <- Some parent;
  parent.children <- parent.children @ [ child ]

let append_children parent children =
  let up = Some parent in
  List.iter
    (fun c ->
      match c.parent with
      | Some _ -> invalid_arg "Dom.append_children: child already attached"
      | None -> c.parent <- up)
    children;
  parent.children <- parent.children @ children

let insert_child parent ~pos child =
  (match child.parent with
  | Some _ -> invalid_arg "Dom.insert_child: child already attached"
  | None -> ());
  let pos = max 0 (min pos (List.length parent.children)) in
  let rec splice i = function
    | rest when i = pos -> child :: rest
    | [] -> [ child ]
    | c :: rest -> c :: splice (i + 1) rest
  in
  child.parent <- Some parent;
  parent.children <- splice 0 parent.children

let remove_child parent child =
  if not (List.exists (equal child) parent.children) then
    invalid_arg "Dom.remove_child: not a child";
  parent.children <- List.filter (fun c -> not (equal c child)) parent.children;
  child.parent <- None

let child_index n =
  match n.parent with
  | None -> invalid_arg "Dom.child_index: no parent"
  | Some p ->
    let rec find i = function
      | [] -> invalid_arg "Dom.child_index: detached"
      | c :: rest -> if equal c n then i else find (i + 1) rest
    in
    find 0 p.children

let degree n = List.length n.children
let nth_child n i = List.nth_opt n.children i

let rec iter_preorder f n =
  f n;
  List.iter (iter_preorder f) n.children

let rec fold_preorder f acc n =
  let acc = f acc n in
  List.fold_left (fold_preorder f) acc n.children

let preorder n = List.rev (fold_preorder (fun acc x -> x :: acc) [] n)
let elements n = List.filter is_element (preorder n)
let size n = fold_preorder (fun acc _ -> acc + 1) 0 n

let rec depth_of n = match n.parent with None -> 0 | Some p -> 1 + depth_of p

let ancestors n =
  let rec go acc n =
    match n.parent with None -> List.rev acc | Some p -> go (p :: acc) p
  in
  go [] n

let descendants n = match preorder n with [] -> [] | _ :: rest -> rest

let is_ancestor ~anc ~desc =
  let rec go n =
    match n.parent with
    | None -> false
    | Some p -> equal p anc || go p
  in
  go desc

let document_order ~root a b =
  if equal a b then 0
  else begin
    let pos_a = ref (-1) and pos_b = ref (-1) and i = ref 0 in
    iter_preorder
      (fun n ->
        if equal n a then pos_a := !i;
        if equal n b then pos_b := !i;
        incr i)
      root;
    if !pos_a < 0 || !pos_b < 0 then
      invalid_arg "Dom.document_order: node not under root";
    Stdlib.compare !pos_a !pos_b
  end

let root_element doc =
  match List.find_opt is_element doc.children with
  | Some e -> e
  | None -> raise Not_found

let text_content n =
  let buf = Buffer.create 64 in
  iter_preorder
    (fun x -> match x.kind with Text s -> Buffer.add_string buf s | _ -> ())
    n;
  Buffer.contents buf

let rec clone n =
  let kind =
    match n.kind with
    | Document -> Document
    | Element e -> Element { tag = e.tag; attrs = e.attrs }
    | (Text _ | Comment _ | Pi _) as k -> k
  in
  let copy = make kind in
  append_children copy (List.map clone n.children);
  copy

let version n = { n with children = n.children }

let replace_child parent ~old by =
  parent.children <-
    List.map (fun c -> if equal c old then by else c) parent.children;
  by.parent <- Some parent

let pp_kind ppf n =
  match n.kind with
  | Document -> Format.pp_print_string ppf "#document"
  | Element e -> Format.fprintf ppf "<%s>" e.tag
  | Text s -> Format.fprintf ppf "#text(%S)" s
  | Comment s -> Format.fprintf ppf "#comment(%S)" s
  | Pi (t, _) -> Format.fprintf ppf "<?%s?>" t
