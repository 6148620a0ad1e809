(* A miniature document server: several data sources registered in a
   collection (Section 4, "data sources scattered over several sites"),
   numberings persisted and restored without relabelling, DataGuide
   summaries for query assistance, and a twig query planned as semijoins
   over rank postings, with the plan the planner explains.

   Run with: dune exec examples/document_server.exe *)

module Dom = Rxml.Dom
module R2 = Ruid.Ruid2
module C = Rxpath.Collection

let tmp name =
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "doc-server-%d-%s" (Unix.getpid ()) name)

let remove_if_exists path = if Sys.file_exists path then Sys.remove path

let main () =
  (* 1. Register heterogeneous sources. *)
  let coll = C.create ~max_area_size:32 () in
  let _auctions =
    C.add coll ~name:"auctions" (Rworkload.Xmark.generate ~seed:11 ~scale:1.0)
  in
  let library =
    C.add coll ~name:"library" (Rworkload.Dblp.generate ~seed:12 ~publications:150)
  in
  Printf.printf "collection: %d documents, %d nodes, %d words of K tables\n\n"
    (C.doc_count coll) (C.total_nodes coll) (C.aux_memory_words coll);

  (* 2. Cross-collection query. *)
  List.iter
    (fun q ->
      Printf.printf "query %-22s ->" q;
      List.iter
        (fun (d, hits) ->
          Printf.printf "  %s: %d" (C.name_of coll d) (List.length hits))
        (C.query coll q);
      print_newline ())
    [ "//name"; "//author"; "//item//text" ];

  (* 3. DataGuide of the library: what paths exist, for query assistance. *)
  let lib_root = R2.root (C.ruid coll library) in
  let guide = Rsummary.Dataguide.build lib_root in
  Printf.printf "\nlibrary DataGuide: %d label paths over %d elements\n"
    (Rsummary.Dataguide.guide_nodes guide)
    (Rsummary.Dataguide.document_nodes guide);
  Printf.printf "completions under /dblp/article: %s\n"
    (String.concat ", " (Rsummary.Dataguide.child_labels guide [ "dblp"; "article" ]));

  (* 4. Twig query over the auction source, through the cost-based
        planner; EXPLAIN runs it once more with per-operator counts. *)
  let planner =
    Rxpath.Planner.create (C.ruid coll (Option.get (C.find coll "auctions")))
  in
  let twig = "//person[creditcard]/name" in
  Printf.printf "\ntwig %s: %d matches\n%s" twig
    (List.length (Rxpath.Planner.query planner twig))
    (Rxpath.Planner.explain planner twig);

  (* 5. Persist the library numbering and restore it: identifiers survive
        the process boundary, so external references stay valid. *)
  let xml = tmp "library.xml" and sidecar = tmp "library.ruid" in
  Fun.protect
    ~finally:(fun () ->
      remove_if_exists xml;
      remove_if_exists sidecar)
    (fun () ->
      Ruid.Persist.save (C.ruid coll library) ~xml ~sidecar;
      let _doc, restored = Ruid.Persist.load ~xml ~sidecar () in
      R2.check_consistency restored;
      let some_author =
        List.find (fun n -> Dom.tag n = "author") (R2.all_nodes restored)
      in
      Printf.printf
        "\npersisted and restored the library: %d identifiers verified;\n"
        (List.length (R2.all_nodes restored));
      Printf.printf "e.g. an <author> still resolves to %s\n"
        (R2.id_to_string (R2.id_of_node restored some_author)));
  print_endline "done."

let () =
  match main () with
  | () -> ()
  | exception e ->
    Printf.eprintf "document_server example failed: %s\n" (Printexc.to_string e);
    exit 1
