module Dom = Rxml.Dom

let shallow (n : Dom.t) =
  match n.Dom.kind with
  | Dom.Document -> Dom.document ()
  | Dom.Element { tag; attrs } -> Dom.element ~attrs tag
  | Dom.Text s -> Dom.text s
  | Dom.Comment s -> Dom.comment s
  | Dom.Pi (t, d) -> Dom.pi t d

let fragment_nodes ?(deep = true) r2 nodes =
  (* Mark every selected node and, via rancestor arithmetic, its chain of
     ancestors. *)
  let selected = Hashtbl.create 64 in
  let keep = Hashtbl.create 256 in
  List.iter
    (fun n ->
      Hashtbl.replace selected n.Dom.serial ();
      Hashtbl.replace keep n.Dom.serial ();
      List.iter
        (fun aid ->
          match Ruid2.node_of_id r2 aid with
          | Some a -> Hashtbl.replace keep a.Dom.serial ()
          | None -> ())
        (Ruid2.rancestors r2 (Ruid2.id_of_node r2 n)))
    nodes;
  let rec build n =
    if deep && Hashtbl.mem selected n.Dom.serial then Dom.clone n
    else begin
      let copy = shallow n in
      List.iter
        (fun c -> if Hashtbl.mem keep c.Dom.serial then Dom.append_child copy (build c))
        n.Dom.children;
      copy
    end
  in
  build (Ruid2.root r2)

let fragment ?deep r2 ids =
  let nodes =
    List.map
      (fun id ->
        match Ruid2.node_of_id r2 id with
        | Some n -> n
        | None ->
          invalid_arg
            ("Reconstruct.fragment: unresolvable identifier "
            ^ Ruid2.id_to_string id))
      ids
  in
  fragment_nodes ?deep r2 nodes
