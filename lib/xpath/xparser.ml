exception Syntax_error of string

let fail fmt = Format.kasprintf (fun s -> raise (Syntax_error s)) fmt

(* ------------------------------------------------------------------ *)
(* Lexer                                                               *)
(* ------------------------------------------------------------------ *)

type token =
  | SLASH
  | DSLASH
  | AT
  | DOT
  | DOTDOT
  | STAR
  | LBRACKET
  | RBRACKET
  | LPAREN
  | RPAREN
  | COLONCOLON
  | NAME of string
  | NUMBER of float
  | LITERAL of string
  | OP of Ast.cmp
  | PIPE
  | COMMA
  | EOF

let is_name_start c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'

let is_name_char c =
  is_name_start c || (c >= '0' && c <= '9') || c = '-' || c = '.' || c = ':'

let tokenize src =
  let n = String.length src in
  let toks = ref [] in
  let emit t = toks := t :: !toks in
  let i = ref 0 in
  while !i < n do
    let c = src.[!i] in
    if c = ' ' || c = '\t' || c = '\n' || c = '\r' then incr i
    else if c = '/' then
      if !i + 1 < n && src.[!i + 1] = '/' then (emit DSLASH; i := !i + 2)
      else (emit SLASH; incr i)
    else if c = '@' then (emit AT; incr i)
    else if c = '.' then
      if !i + 1 < n && src.[!i + 1] = '.' then (emit DOTDOT; i := !i + 2)
      else if !i + 1 < n && src.[!i + 1] >= '0' && src.[!i + 1] <= '9' then begin
        (* .5 style number *)
        let start = !i in
        incr i;
        while !i < n && src.[!i] >= '0' && src.[!i] <= '9' do incr i done;
        match float_of_string_opt (String.sub src start (!i - start)) with
        | Some f -> emit (NUMBER f)
        | None -> fail "malformed number"
      end
      else (emit DOT; incr i)
    else if c = '*' then (emit STAR; incr i)
    else if c = '[' then (emit LBRACKET; incr i)
    else if c = ']' then (emit RBRACKET; incr i)
    else if c = '(' then (emit LPAREN; incr i)
    else if c = ')' then (emit RPAREN; incr i)
    else if c = ':' && !i + 1 < n && src.[!i + 1] = ':' then
      (emit COLONCOLON; i := !i + 2)
    else if c = '|' then (emit PIPE; incr i)
    else if c = ',' then (emit COMMA; incr i)
    else if c = '=' then (emit (OP Ast.Eq); incr i)
    else if c = '!' && !i + 1 < n && src.[!i + 1] = '=' then
      (emit (OP Ast.Neq); i := !i + 2)
    else if c = '<' then
      if !i + 1 < n && src.[!i + 1] = '=' then (emit (OP Ast.Le); i := !i + 2)
      else (emit (OP Ast.Lt); incr i)
    else if c = '>' then
      if !i + 1 < n && src.[!i + 1] = '=' then (emit (OP Ast.Ge); i := !i + 2)
      else (emit (OP Ast.Gt); incr i)
    else if c = '"' || c = '\'' then begin
      let quote = c in
      let start = !i + 1 in
      incr i;
      while !i < n && src.[!i] <> quote do incr i done;
      if !i >= n then fail "unterminated string literal";
      emit (LITERAL (String.sub src start (!i - start)));
      incr i
    end
    else if c >= '0' && c <= '9' then begin
      let start = !i in
      while !i < n && ((src.[!i] >= '0' && src.[!i] <= '9') || src.[!i] = '.') do
        incr i
      done;
      match float_of_string_opt (String.sub src start (!i - start)) with
      | Some f -> emit (NUMBER f)
      | None -> fail "malformed number"
    end
    else if is_name_start c then begin
      let start = !i in
      (* A name may contain ':' (prefixes) but must not swallow '::'. *)
      while
        !i < n
        && is_name_char src.[!i]
        && not (src.[!i] = ':' && !i + 1 < n && src.[!i + 1] = ':')
        && not (src.[!i] = ':' && !i + 1 >= n)
      do
        incr i
      done;
      emit (NAME (String.sub src start (!i - start)))
    end
    else fail "unexpected character %C" c
  done;
  List.rev (EOF :: !toks)

(* ------------------------------------------------------------------ *)
(* Parser                                                              *)
(* ------------------------------------------------------------------ *)

type state = { mutable toks : token list }

let peek st = match st.toks with [] -> EOF | t :: _ -> t

let next st =
  match st.toks with
  | [] -> EOF
  | t :: rest ->
    st.toks <- rest;
    t

let expect st t =
  let got = next st in
  if got <> t then fail "unexpected token"

let axis_of_name = function
  | "child" -> Ast.Child
  | "descendant" -> Ast.Descendant
  | "parent" -> Ast.Parent
  | "ancestor" -> Ast.Ancestor
  | "following-sibling" -> Ast.Following_sibling
  | "preceding-sibling" -> Ast.Preceding_sibling
  | "following" -> Ast.Following
  | "preceding" -> Ast.Preceding
  | "self" -> Ast.Self
  | "descendant-or-self" -> Ast.Descendant_or_self
  | "ancestor-or-self" -> Ast.Ancestor_or_self
  | "attribute" -> Ast.Attribute
  | a -> fail "unknown axis %s" a

(* node test after the axis has been decided *)
let parse_node_test st =
  match next st with
  | STAR -> Ast.Wildcard
  | NAME "text" when peek st = LPAREN ->
    expect st LPAREN;
    expect st RPAREN;
    Ast.Text_test
  | NAME "node" when peek st = LPAREN ->
    expect st LPAREN;
    expect st RPAREN;
    Ast.Node_any
  | NAME "comment" when peek st = LPAREN ->
    expect st LPAREN;
    expect st RPAREN;
    Ast.Comment_test
  | NAME n -> Ast.Name n
  | _ -> fail "expected a node test"

let rec parse_step st : Ast.step =
  match peek st with
  | DOT ->
    ignore (next st);
    { Ast.axis = Ast.Self; test = Ast.Node_any; preds = [] }
  | DOTDOT ->
    ignore (next st);
    { Ast.axis = Ast.Parent; test = Ast.Node_any; preds = [] }
  | AT ->
    ignore (next st);
    let test = parse_node_test st in
    { Ast.axis = Ast.Attribute; test; preds = parse_preds st }
  | NAME n when (match st.toks with _ :: COLONCOLON :: _ -> true | _ -> false) ->
    ignore (next st);
    expect st COLONCOLON;
    let axis = axis_of_name n in
    let test = parse_node_test st in
    { Ast.axis; test; preds = parse_preds st }
  | _ ->
    let test = parse_node_test st in
    { Ast.axis = Ast.Child; test; preds = parse_preds st }

and parse_preds st =
  if peek st = LBRACKET then begin
    ignore (next st);
    let e = parse_expr st in
    expect st RBRACKET;
    e :: parse_preds st
  end
  else []

and parse_rel_path st first =
  let dos_step =
    { Ast.axis = Ast.Descendant_or_self; test = Ast.Node_any; preds = [] }
  in
  let rec more acc =
    match peek st with
    | SLASH ->
      ignore (next st);
      more (parse_step st :: acc)
    | DSLASH ->
      ignore (next st);
      more (parse_step st :: dos_step :: acc)
    | _ -> List.rev acc
  in
  more [ first ]

and parse_path st : Ast.path =
  match peek st with
  | SLASH ->
    ignore (next st);
    (match peek st with
    | EOF | RBRACKET | RPAREN | OP _ | NAME "and" | NAME "or" ->
      { Ast.absolute = true; steps = [] }
    | _ -> { Ast.absolute = true; steps = parse_rel_path st (parse_step st) })
  | DSLASH ->
    ignore (next st);
    let dos =
      { Ast.axis = Ast.Descendant_or_self; test = Ast.Node_any; preds = [] }
    in
    let rest = parse_rel_path st (parse_step st) in
    { Ast.absolute = true; steps = dos :: rest }
  | _ -> { Ast.absolute = false; steps = parse_rel_path st (parse_step st) }

and parse_expr st = parse_or st

and parse_or st =
  let left = parse_and st in
  match peek st with
  | NAME "or" ->
    ignore (next st);
    Ast.Or (left, parse_or st)
  | _ -> left

and parse_and st =
  let left = parse_cmp st in
  match peek st with
  | NAME "and" ->
    ignore (next st);
    Ast.And (left, parse_and st)
  | _ -> left

and parse_cmp st =
  let left = parse_primary st in
  match peek st with
  | OP op ->
    ignore (next st);
    Ast.Cmp (op, left, parse_primary st)
  | _ -> left

and parse_primary st =
  match peek st with
  | NUMBER f ->
    ignore (next st);
    Ast.Num f
  | LITERAL s ->
    ignore (next st);
    Ast.Str s
  | LPAREN ->
    ignore (next st);
    let e = parse_expr st in
    expect st RPAREN;
    e
  | NAME "position" when nexts_are_call st ->
    ignore (next st);
    expect st LPAREN;
    expect st RPAREN;
    Ast.Position
  | NAME "last" when nexts_are_call st ->
    ignore (next st);
    expect st LPAREN;
    expect st RPAREN;
    Ast.Last
  | NAME "count" when nexts_are_call st ->
    ignore (next st);
    expect st LPAREN;
    let p = parse_path st in
    expect st RPAREN;
    Ast.Count p
  | NAME "not" when nexts_are_call st ->
    ignore (next st);
    expect st LPAREN;
    let e = parse_expr st in
    expect st RPAREN;
    Ast.Not e
  | NAME "contains" when nexts_are_call st ->
    ignore (next st);
    expect st LPAREN;
    let a = parse_expr st in
    expect st COMMA;
    let b = parse_expr st in
    expect st RPAREN;
    Ast.Contains (a, b)
  | NAME "starts-with" when nexts_are_call st ->
    ignore (next st);
    expect st LPAREN;
    let a = parse_expr st in
    expect st COMMA;
    let b = parse_expr st in
    expect st RPAREN;
    Ast.Starts_with (a, b)
  | NAME "string-length" when nexts_are_call st ->
    ignore (next st);
    expect st LPAREN;
    let e = parse_expr st in
    expect st RPAREN;
    Ast.String_length e
  | NAME "name" when nexts_are_call st ->
    ignore (next st);
    expect st LPAREN;
    expect st RPAREN;
    Ast.Name_fun
  | SLASH | DSLASH | DOT | DOTDOT | AT | STAR | NAME _ ->
    Ast.Path (parse_path st)
  | _ -> fail "expected an expression"

and nexts_are_call st =
  match st.toks with _ :: LPAREN :: _ -> true | _ -> false

let parse src =
  if String.trim src = "" then fail "empty expression";
  let st = { toks = tokenize src } in
  let p = parse_path st in
  (match peek st with
  | EOF -> ()
  | _ -> fail "trailing tokens after location path");
  p

let parse_union src =
  if String.trim src = "" then fail "empty expression";
  let st = { toks = tokenize src } in
  let rec go acc =
    let p = parse_path st in
    match peek st with
    | PIPE ->
      ignore (next st);
      go (p :: acc)
    | EOF -> List.rev (p :: acc)
    | _ -> fail "trailing tokens after location path"
  in
  go []

(* ------------------------------------------------------------------ *)
(* Canonical form                                                      *)
(* ------------------------------------------------------------------ *)

(* A fully parenthesized, fully explicit rendering, one string per AST.
   [Ast.pp_expr] is not usable as a cache key: it prints no parentheses,
   so [And (Or (a, b), c)] renders as ["a or b and c"], which re-parses as
   [Or (a, And (b, c))] — two inequivalent queries would share a key.  The
   canonical printer parenthesizes every binary node, expands every
   abbreviation to [axis::test], and is verified below by a re-parse
   round-trip before anything trusts it. *)

exception Unprintable

let canon_union (u : Ast.union_path) =
  let b = Buffer.create 64 in
  let ps = Buffer.add_string b in
  let rec expr = function
    | Ast.Or (x, y) -> binary "or" x y
    | Ast.And (x, y) -> binary "and" x y
    | Ast.Cmp (op, x, y) -> binary (Ast.cmp_name op) x y
    | Ast.Num f ->
      if Float.is_integer f && Float.abs f < 1e15 && f >= 0. then
        ps (string_of_int (int_of_float f))
      else ps (Printf.sprintf "%.12g" f)
      (* anything the lexer cannot re-read fails round-trip verification *)
    | Ast.Str s ->
      if not (String.contains s '"') then (ps "\""; ps s; ps "\"")
      else if not (String.contains s '\'') then (ps "'"; ps s; ps "'")
      else raise Unprintable
    | Ast.Position -> ps "position()"
    | Ast.Last -> ps "last()"
    | Ast.Count p -> ps "count("; path p; ps ")"
    | Ast.Not e -> ps "not("; expr e; ps ")"
    | Ast.Contains (x, y) -> call2 "contains" x y
    | Ast.Starts_with (x, y) -> call2 "starts-with" x y
    | Ast.String_length e -> ps "string-length("; expr e; ps ")"
    | Ast.Name_fun -> ps "name()"
    | Ast.Path p -> path p
  and binary op x y =
    ps "("; expr x; ps " "; ps op; ps " "; expr y; ps ")"
  and call2 name x y = ps name; ps "("; expr x; ps ", "; expr y; ps ")"
  and step (s : Ast.step) =
    ps (Ast.axis_name s.axis);
    ps "::";
    ps (Ast.test_name s.test);
    List.iter (fun p -> ps "["; expr p; ps "]") s.preds
  and path (p : Ast.path) =
    match (p.absolute, p.steps) with
    | true, [] -> ps "/"
    | false, [] -> raise Unprintable
    | abs, s0 :: rest ->
      if abs then ps "/";
      step s0;
      List.iter (fun s -> ps "/"; step s) rest
  in
  (match u with
  | [] -> raise Unprintable
  | p0 :: rest ->
    path p0;
    List.iter (fun p -> ps " | "; path p) rest);
  Buffer.contents b

let canonical_opt u =
  match canon_union u with
  | exception Unprintable -> None
  | c -> (
    (* Trust the rendering only if it round-trips: parse it back and check
       the re-render is byte-identical. *)
    match parse_union c with
    | exception Syntax_error _ -> None
    | u2 -> (
      match canon_union u2 with
      | exception Unprintable -> None
      | c2 -> if String.equal c c2 then Some c else None))

(* Whitespace-run collapse + trim — the pre-canonical normal form, kept as
   the fallback for inputs the canonical printer cannot round-trip. *)
let ws_collapse q =
  let b = Buffer.create (String.length q) in
  let pending_space = ref false in
  String.iter
    (fun c ->
      if c = ' ' || c = '\t' || c = '\n' || c = '\r' then
        (if Buffer.length b > 0 then pending_space := true)
      else begin
        if !pending_space then Buffer.add_char b ' ';
        pending_space := false;
        Buffer.add_char b c
      end)
    q;
  Buffer.contents b

let canonical src =
  match parse_union src with
  | exception Syntax_error _ -> None
  | u -> canonical_opt u

let normalize src =
  match canonical src with Some c -> c | None -> ws_collapse src
