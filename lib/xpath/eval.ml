module Dom = Rxml.Dom

type engine = {
  root : Dom.t;
  axis : Ast.axis -> Dom.t -> Dom.t list;
  named_axis : Ast.axis -> string -> Dom.t -> Dom.t list option;
  compare_order : Dom.t -> Dom.t -> int;
  rank_of : Dom.t -> int option;
      (* snapshot document-order rank, when the engine has one: lets sorts
         decorate once instead of paying table lookups per comparison *)
}

type value =
  | Bool of bool
  | Num of float
  | Str of string
  | Nodes of Dom.t list
  | Attrs of string list

let to_bool = function
  | Bool b -> b
  | Num f -> f <> 0. && not (Float.is_nan f)
  | Str s -> s <> ""
  | Nodes l -> l <> []
  | Attrs l -> l <> []

let node_string n = Dom.text_content n

let to_str = function
  | Str s -> s
  | Num f ->
    if Float.is_integer f && Float.abs f < 1e15 then
      string_of_int (int_of_float f)
    else string_of_float f
  | Bool b -> if b then "true" else "false"
  | Nodes [] -> ""
  | Nodes (n :: _) -> node_string n
  | Attrs [] -> ""
  | Attrs (v :: _) -> v

let num_of_string s =
  match float_of_string_opt (String.trim s) with
  | Some f -> f
  | None -> Float.nan

let to_num = function
  | Num f -> f
  | Str s -> num_of_string s
  | Bool b -> if b then 1. else 0.
  | (Nodes _ | Attrs _) as v -> num_of_string (to_str v)

let matches_test test (n : Dom.t) =
  match (test, n.Dom.kind) with
  | Ast.Name t, Dom.Element { tag; _ } -> tag = t
  | Ast.Wildcard, Dom.Element _ -> true
  | Ast.Text_test, Dom.Text _ -> true
  | Ast.Comment_test, Dom.Comment _ -> true
  | Ast.Node_any, _ -> true
  | (Ast.Name _ | Ast.Wildcard | Ast.Text_test | Ast.Comment_test), _ -> false

(* Existential comparison semantics of XPath 1.0. *)
let cmp_op op a b =
  match op with
  | Ast.Eq -> a = b
  | Ast.Neq -> a <> b
  | Ast.Lt -> a < b
  | Ast.Le -> a <= b
  | Ast.Gt -> a > b
  | Ast.Ge -> a >= b

let compare_values op va vb =
  let strings_of = function
    | Nodes l -> List.map node_string l
    | Attrs l -> l
    | v -> [ to_str v ]
  in
  let is_set = function Nodes _ | Attrs _ -> true | Bool _ | Num _ | Str _ -> false in
  let numeric =
    match (op, va, vb) with
    | (Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge), _, _ -> true
    | _, Num _, _ | _, _, Num _ -> true
    | _ -> false
  in
  if is_set va || is_set vb then begin
    let sa = strings_of va and sb = strings_of vb in
    List.exists
      (fun a ->
        List.exists
          (fun b ->
            if numeric then cmp_op op (compare (num_of_string a) (num_of_string b)) 0
            else cmp_op op (compare a b) 0)
          sb)
      sa
  end
  else if numeric then cmp_op op (compare (to_num va) (to_num vb)) 0
  else
    match (va, vb) with
    | Bool _, _ | _, Bool _ -> cmp_op op (compare (to_bool va) (to_bool vb)) 0
    | _ -> cmp_op op (compare (to_str va) (to_str vb)) 0

let sort_doc eng nodes =
  let tbl = Hashtbl.create (List.length nodes * 2) in
  let uniq =
    List.filter
      (fun n ->
        if Hashtbl.mem tbl n.Dom.serial then false
        else begin
          Hashtbl.replace tbl n.Dom.serial ();
          true
        end)
      nodes
  in
  (* Decorate with snapshot ranks when available (one lookup per node
     instead of two per comparison). *)
  let decorated = List.map (fun n -> (eng.rank_of n, n)) uniq in
  if List.for_all (fun (r, _) -> r <> None) decorated then
    List.map snd
      (List.sort
         (fun (a, _) (b, _) -> Stdlib.compare a b)
         (List.map (fun (r, n) -> (Option.get r, n)) decorated))
  else List.sort eng.compare_order uniq

(* [steps] maintains the invariant that [current] is already in document
   order without duplicates, so each step sorts only its own output. *)
let rec eval_path eng context (p : Ast.path) : value =
  let start = if p.Ast.absolute then eng.root else context in
  let rec steps current = function
    | [] -> Nodes current
    | [ ({ Ast.axis = Ast.Attribute; _ } as step) ] ->
      let values =
        List.concat_map
          (fun n ->
            match step.Ast.test with
            | Ast.Name a -> (
              match Dom.attr n a with Some v -> [ v ] | None -> [])
            | Ast.Wildcard | Ast.Node_any -> (
              match n.Dom.kind with
              | Dom.Element { attrs; _ } -> List.map snd attrs
              | _ -> [])
            | Ast.Text_test | Ast.Comment_test -> [])
          current
      in
      (* Attribute predicates beyond existence are not supported. *)
      if step.Ast.preds <> [] then
        invalid_arg "Eval: predicates on the attribute axis are unsupported";
      Attrs values
    | { Ast.axis = Ast.Attribute; _ } :: _ ->
      invalid_arg "Eval: attribute step must be the last step"
    | step :: rest ->
      let out = List.concat_map (eval_step eng step) current in
      steps (sort_doc eng out) rest
  in
  steps [ start ] p.Ast.steps

and eval_step eng (step : Ast.step) context_node =
  let candidates =
    match step.Ast.test with
    | Ast.Name t -> (
      match eng.named_axis step.Ast.axis t context_node with
      | Some nodes -> nodes
      | None ->
        List.filter (matches_test step.Ast.test)
          (eng.axis step.Ast.axis context_node))
    | test ->
      List.filter (matches_test test) (eng.axis step.Ast.axis context_node)
  in
  List.fold_left (fun nodes pred -> filter_pred eng pred nodes) candidates
    step.Ast.preds

and filter_pred eng pred nodes =
  let size = List.length nodes in
  List.filteri
    (fun i n ->
      let position = i + 1 in
      match eval_expr eng ~node:n ~position ~size pred with
      | Num f -> Float.equal f (float_of_int position)
      | v -> to_bool v)
    nodes

and eval_expr eng ~node ~position ~size = function
  | Ast.Or (a, b) ->
    Bool
      (to_bool (eval_expr eng ~node ~position ~size a)
      || to_bool (eval_expr eng ~node ~position ~size b))
  | Ast.And (a, b) ->
    Bool
      (to_bool (eval_expr eng ~node ~position ~size a)
      && to_bool (eval_expr eng ~node ~position ~size b))
  | Ast.Cmp (op, a, b) ->
    Bool
      (compare_values op
         (eval_expr eng ~node ~position ~size a)
         (eval_expr eng ~node ~position ~size b))
  | Ast.Num f -> Num f
  | Ast.Str s -> Str s
  | Ast.Position -> Num (float_of_int position)
  | Ast.Last -> Num (float_of_int size)
  | Ast.Count p -> (
    match eval_path eng node p with
    | Nodes l -> Num (float_of_int (List.length l))
    | Attrs l -> Num (float_of_int (List.length l))
    | v -> Num (to_num v))
  | Ast.Not e -> Bool (not (to_bool (eval_expr eng ~node ~position ~size e)))
  | Ast.Contains (a, b) ->
    let sa = to_str (eval_expr eng ~node ~position ~size a) in
    let sb = to_str (eval_expr eng ~node ~position ~size b) in
    let m = String.length sb in
    let rec scan i =
      i + m <= String.length sa && (String.sub sa i m = sb || scan (i + 1))
    in
    Bool (scan 0)
  | Ast.Starts_with (a, b) ->
    let sa = to_str (eval_expr eng ~node ~position ~size a) in
    let sb = to_str (eval_expr eng ~node ~position ~size b) in
    Bool
      (String.length sa >= String.length sb
      && String.sub sa 0 (String.length sb) = sb)
  | Ast.String_length e ->
    Num (float_of_int (String.length (to_str (eval_expr eng ~node ~position ~size e))))
  | Ast.Name_fun -> Str (Dom.tag node)
  | Ast.Path p -> eval_path eng node p

(* A predicate is positional if its outcome can depend on the proximity
   position, in which case step rewrites that change candidate grouping are
   unsound: a bare number (shorthand for [position() = n]) or any use of
   [position()]/[last()]. *)
let rec uses_position = function
  | Ast.Position | Ast.Last -> true
  | Ast.Num _ | Ast.Str _ -> false
  | Ast.Or (a, b) | Ast.And (a, b) | Ast.Cmp (_, a, b) ->
    uses_position a || uses_position b
  | Ast.Not e | Ast.String_length e -> uses_position e
  | Ast.Contains (a, b) | Ast.Starts_with (a, b) ->
    uses_position a || uses_position b
  | Ast.Name_fun -> false
  | Ast.Count p | Ast.Path p ->
    List.exists (fun s -> List.exists positional s.Ast.preds) p.Ast.steps

and positional = function
  | Ast.Num _ -> true
  | e -> uses_position e

(* Collapse [descendant-or-self::node()/child::T] (the expansion of [//T])
   into [descendant::T]: same node-set, and it lets engines answer the name
   test from a tag index.  Sound only without positional predicates, whose
   grouping differs between the two forms. *)
let rec optimize (p : Ast.path) : Ast.path =
  let rec steps = function
    | ({ Ast.axis = Ast.Descendant_or_self; test = Ast.Node_any; preds = [] }
      :: ({ Ast.axis = Ast.Child; test = Ast.Name _; preds } as nxt) :: rest)
      when not (List.exists positional preds) ->
      { nxt with Ast.axis = Ast.Descendant;
        preds = List.map optimize_expr preds }
      :: steps rest
    | s :: rest -> { s with Ast.preds = List.map optimize_expr s.Ast.preds } :: steps rest
    | [] -> []
  in
  { p with Ast.steps = steps p.Ast.steps }

and optimize_expr = function
  | Ast.Or (a, b) -> Ast.Or (optimize_expr a, optimize_expr b)
  | Ast.And (a, b) -> Ast.And (optimize_expr a, optimize_expr b)
  | Ast.Cmp (op, a, b) -> Ast.Cmp (op, optimize_expr a, optimize_expr b)
  | Ast.Not e -> Ast.Not (optimize_expr e)
  | Ast.Contains (a, b) -> Ast.Contains (optimize_expr a, optimize_expr b)
  | Ast.Starts_with (a, b) -> Ast.Starts_with (optimize_expr a, optimize_expr b)
  | Ast.String_length e -> Ast.String_length (optimize_expr e)
  | Ast.Count p -> Ast.Count (optimize p)
  | Ast.Path p -> Ast.Path (optimize p)
  | (Ast.Num _ | Ast.Str _ | Ast.Position | Ast.Last | Ast.Name_fun) as e -> e

let eval eng ?context p =
  let context = Option.value ~default:eng.root context in
  eval_path eng context (optimize p)

let select eng ?context p =
  match eval eng ?context p with
  | Nodes l -> l
  | Attrs _ -> invalid_arg "Eval.select: path ends on the attribute axis"
  | Bool _ | Num _ | Str _ -> assert false

let select_union eng ?context (u : Ast.union_path) =
  sort_doc eng (List.concat_map (fun p -> select eng ?context p) u)

let query eng ?context src = select_union eng ?context (Xparser.parse_union src)
