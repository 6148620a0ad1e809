(* Plain-text tables for the experiment harness. *)

let section title =
  let line = String.make 72 '=' in
  Printf.printf "\n%s\n%s\n%s\n" line title line

let subsection title = Printf.printf "\n--- %s ---\n" title

let note fmt = Printf.printf ("  " ^^ fmt ^^ "\n")

(* Print a table given headers and rows of strings; columns sized to fit. *)
let table headers rows =
  let cols = List.length headers in
  let width i =
    List.fold_left
      (fun acc row -> max acc (String.length (List.nth row i)))
      (String.length (List.nth headers i))
      rows
  in
  let widths = List.init cols width in
  let print_row row =
    List.iteri
      (fun i cell ->
        let w = List.nth widths i in
        if i = 0 then Printf.printf "  %-*s" w cell
        else Printf.printf "  %*s" w cell)
      row;
    print_newline ()
  in
  print_row headers;
  print_row (List.map (fun w -> String.make w '-') widths);
  List.iter print_row rows

let fint n = string_of_int n
let ffloat f = Printf.sprintf "%.2f" f

let fns ns =
  if ns < 1e3 then Printf.sprintf "%.1f ns" ns
  else if ns < 1e6 then Printf.sprintf "%.2f us" (ns /. 1e3)
  else if ns < 1e9 then Printf.sprintf "%.2f ms" (ns /. 1e6)
  else Printf.sprintf "%.2f s" (ns /. 1e9)

let fbool b = if b then "yes" else "no"

(* The scratch directory of experiment [name] in this harness process,
   made on first use: no module makes one as it loads, so a process
   started for one build (E20's children) leaves nothing behind. *)
let workdir name =
  let d =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "ruid-%s-%d" name (Unix.getpid ()))
  in
  (try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  d

(* Provenance stamped into every BENCH_*.json: bench numbers without the
   machine, toolchain and revision that produced them are not comparable
   run-to-run — and concurrency numbers without the worker/domain/
   commit-group knobs the run actually used are not interpretable across
   boxes, so experiments pass those through [knobs].  Rendered as one JSON
   member (no trailing comma). *)
let meta_json ?(knobs = []) () =
  let git_rev =
    try
      let ic =
        Unix.open_process_in "git rev-parse --short HEAD 2>/dev/null"
      in
      let line = try String.trim (input_line ic) with End_of_file -> "" in
      match Unix.close_process_in ic with
      | Unix.WEXITED 0 when line <> "" -> line
      | _ -> "unknown"
    with _ -> "unknown"
  in
  let knob_members =
    String.concat ""
      (List.map (fun (k, v) -> Printf.sprintf ", %S: %d" k v) knobs)
  in
  Printf.sprintf
    {|  "meta": {"cores": %d, "ocaml": %S, "git_rev": %S, "timestamp": %.0f, "peak_rss_kb": %d%s}|}
    (Domain.recommended_domain_count ())
    Sys.ocaml_version git_rev (Unix.gettimeofday ())
    (Rserver.Metrics.vm_hwm_kb ()) knob_members

(* Wall-clock timing for macro operations (result, seconds). *)
let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)
