(* Experiment harness: regenerates every figure-level claim of the paper.
   Run all experiments, or a subset: `dune exec bench/main.exe -- E2 E5`. *)

let experiments =
  [
    ("E1", E1.run);
    ("E2", E2.run);
    ("E3", E3.run);
    ("E4", E4.run);
    ("E5", E5.run);
    ("E6", E6.run);
    ("E7", E7.run);
    ("E8", E8.run);
    ("E9", E9.run);
    ("E10", E10.run);
    ("E11", E11.run);
    ("E12", E12.run);
    ("E13", E13.run);
    ("E14", E14.run);
    ("E15", E15.run);
    ("E16", E16.run);
    ("E17", E17.run);
    ("E18", E18.run);
    ("E19", E19.run);
    ("E20", E20.run);
    ("E21", E21.run);
    ("E22", E22.run);
    ("E23", E23.run);
  ]

let () =
  let requested =
    match Array.to_list Sys.argv with
    | _ :: (_ :: _ as names) -> List.map String.uppercase_ascii names
    | _ -> List.map fst experiments
  in
  print_endline
    "ruid reproduction harness - 'A Structural Numbering Scheme for XML Data' (EDBT 2002)";
  print_endline
    "All randomness is seeded; rerunning reproduces these numbers exactly (timings vary).";
  List.iter
    (fun name ->
      match List.assoc_opt name experiments with
      | Some run -> run ()
      | None ->
        Printf.eprintf "unknown experiment %s (have: %s)\n" name
          (String.concat ", " (List.map fst experiments));
        exit 2)
    requested;
  print_endline "\ndone."
