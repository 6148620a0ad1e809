(* Streaming ingest: one SAX pass from a chunked feed straight to a
   numbered document.  The DOM is assembled incrementally from events (the
   source text is never materialized as a string), per-node statistics are
   computed during the same pass, and the numbering is the ordinary one
   over the finished tree (Ruid2.number).  The result is bit-identical to
   the read-string / parse / number round-trip (tested: sidecar and
   serialized XML byte-equal). *)

module Dom = Rxml.Dom
module Sax = Rxml.Sax

type stats = {
  nodes : int;  (* DOM nodes assembled, document node included *)
  elements : int;
  max_fanout : int;  (* maximal degree over the numbered tree *)
  max_depth : int;  (* maximal element nesting depth *)
}

type built = { doc : Dom.t; r2 : Ruid2.t; stats : stats }

let of_source ?keep_whitespace ?max_depth ?max_area_size ?max_area_depth
    ?adjust ?(at = `Document) src =
  let doc = Dom.document () in
  (* Children collect in reverse per open node and attach with one bulk
     append at close — per-event [Dom.append_child] is O(degree) and makes
     wide elements quadratic. *)
  let stack = ref [ (doc, ref []) ] in
  let add n =
    match !stack with
    | (_, kids) :: _ -> kids := n :: !kids
    | [] -> assert false
  in
  let nodes = ref 1 and elements = ref 0 in
  let fanout_below = ref 1 in
  let depth = ref 0 and deepest = ref 0 in
  Sax.iter_source ?keep_whitespace ?max_depth src ~f:(function
    | Sax.Start_element { tag; attrs } ->
      let e = Dom.element ~attrs tag in
      add e;
      incr nodes;
      incr elements;
      incr depth;
      if !depth > !deepest then deepest := !depth;
      stack := (e, ref []) :: !stack
    | Sax.End_element _ -> (
      match !stack with
      | (e, kids) :: rest ->
        Dom.append_children e (List.rev !kids);
        let d = List.length !kids in
        if d > !fanout_below then fanout_below := d;
        decr depth;
        stack := rest
      | [] -> assert false)
    | Sax.Text s ->
      add (Dom.text s);
      incr nodes
    | Sax.Comment s ->
      add (Dom.comment s);
      incr nodes
    | Sax.Pi (t, d) ->
      add (Dom.pi t d);
      incr nodes);
  (match !stack with
  | [ (_, kids) ] -> Dom.append_children doc (List.rev !kids)
  | _ -> assert false);
  let root = match at with `Document -> doc | `Root_element -> Dom.root_element doc in
  let max_fanout =
    match at with
    | `Document -> max !fanout_below (Dom.degree doc)
    | `Root_element -> !fanout_below
  in
  let r2 = Ruid2.number ?max_area_size ?max_area_depth ?adjust root in
  {
    doc;
    r2;
    stats =
      { nodes = !nodes; elements = !elements; max_fanout; max_depth = !deepest };
  }

let of_channel ?keep_whitespace ?max_depth ?max_area_size ?max_area_depth
    ?adjust ?at ?chunk ic =
  of_source ?keep_whitespace ?max_depth ?max_area_size ?max_area_depth ?adjust
    ?at
    (Sax.source_of_channel ?chunk ic)

let of_file ?keep_whitespace ?max_depth ?max_area_size ?max_area_depth ?adjust
    ?at ?chunk path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
  of_channel ?keep_whitespace ?max_depth ?max_area_size ?max_area_depth ?adjust
    ?at ?chunk ic

let of_string ?keep_whitespace ?max_depth ?max_area_size ?max_area_depth
    ?adjust ?at src =
  of_source ?keep_whitespace ?max_depth ?max_area_size ?max_area_depth ?adjust
    ?at
    (Sax.source_of_string src)
