(* Results: metrics by name and unit, failure accounting, provenance, and
   the one-line JSON result the benchmark ends with. *)

type json =
  | Null
  | Bool of bool
  | Int of int
  | Num of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

let rec to_string = function
  | Null -> "null"
  | Bool b -> string_of_bool b
  | Int i -> string_of_int i
  | Num f when Float.is_finite f -> Printf.sprintf "%.17g" f
  | Num _ -> "null"
  | Str s -> Perfbench_lib.Trace.json_string s
  | Arr l -> "[" ^ String.concat "," (List.map to_string l) ^ "]"
  | Obj l ->
    "{"
    ^ String.concat ","
        (List.map
           (fun (k, v) -> Perfbench_lib.Trace.json_string k ^ ":" ^ to_string v)
           l)
    ^ "}"

type metric = { name : string; value : float; unit_ : string }

type t = {
  mu : Mutex.t;
  mutable metrics : metric list;  (** newest first *)
  mutable attempted : int;
  mutable failed : int;
  mutable wrong : int;  (** failed because the answer was wrong *)
  mutable failures : string list;  (** the first few, for the log *)
  mutable info : (string * json) list;  (** provenance and extra figures *)
}

let create () =
  { mu = Mutex.create (); metrics = []; attempted = 0; failed = 0; wrong = 0;
    failures = []; info = [] }

let locked t f =
  Mutex.lock t.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) f

let metric t name unit_ value =
  locked t (fun () ->
      t.metrics <-
        { name; value; unit_ }
        :: List.filter (fun m -> m.name <> name) t.metrics)

let find t name =
  List.find_opt (fun m -> m.name = name) t.metrics
  |> Option.map (fun m -> m.value)

let info t key v =
  locked t (fun () -> t.info <- (key, v) :: List.remove_assoc key t.info)

let attempt t = locked t (fun () -> t.attempted <- t.attempted + 1)

let max_logged = 20

let fail ?(wrong = false) t why =
  locked t (fun () ->
      t.failed <- t.failed + 1;
      if wrong then t.wrong <- t.wrong + 1;
      if List.length t.failures < max_logged then
        t.failures <- why :: t.failures)

(* One operation's outcome: counted as attempted, and failed unless [ok]. *)
let outcome t ~ok ?wrong why =
  attempt t;
  if not ok then fail ?wrong t (Lazy.force why)

let error_rate t =
  if t.attempted = 0 then 0.
  else float_of_int t.failed /. float_of_int t.attempted

(* Human-readable report on stderr: every metric by name and unit. *)
let print_report t ~title =
  let ms = List.rev t.metrics in
  Printf.eprintf "== %s\n" title;
  List.iter
    (fun m -> Printf.eprintf "  %-40s %14.4f %s\n" m.name m.value m.unit_)
    ms;
  Printf.eprintf "  %-40s %14d\n  %-40s %14d (wrong answers: %d)\n" "attempted"
    t.attempted "failed" t.failed t.wrong;
  List.iter (fun f -> Printf.eprintf "  failure: %s\n" f) (List.rev t.failures);
  flush stderr

let metrics_json names t =
  Obj
    (List.map
       (fun (name, unit_) ->
         match find t name with
         | Some v -> (name, Obj [ ("value", Num v); ("unit", Str unit_) ])
         | None -> (name, Null))
       names)

(* The last line of standard output. *)
let result_line ~correct ~names t =
  to_string
    (Obj
       [
         ("correct", Bool correct);
         ("attempted", Int (max 1 t.attempted));
         ("failed", Int t.failed);
         ("metrics", metrics_json names t);
       ])

(* Everything a run measured, for the results file. *)
let full_json ~correct t =
  Obj
    [
      ("correct", Bool correct);
      ("attempted", Int t.attempted);
      ("failed", Int t.failed);
      ("wrong_answers", Int t.wrong);
      ("error_rate", Num (error_rate t));
      ( "metrics",
        Obj
          (List.rev_map
             (fun m -> (m.name, Obj [ ("value", Num m.value); ("unit", Str m.unit_) ]))
             t.metrics) );
      ("info", Obj (List.rev t.info));
      ("failures", Arr (List.rev_map (fun f -> Str f) t.failures));
    ]
