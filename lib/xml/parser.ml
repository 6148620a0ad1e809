type error = { line : int; col : int; message : string }

exception Parse_error of error

let pp_error ppf e =
  Format.fprintf ppf "line %d, column %d: %s" e.line e.col e.message

(* Cursor over the input string with line/column tracking for errors. *)
type state = {
  src : string;
  mutable pos : int;
  mutable line : int;
  mutable col : int;
  keep_whitespace : bool;
  max_depth : int;
  mutable depth : int;
  names : Names.t;  (* one string per distinct tag and attribute name *)
}

let fail st message =
  raise (Parse_error { line = st.line; col = st.col; message })

let eof st = st.pos >= String.length st.src
let peek st = if eof st then '\000' else st.src.[st.pos]

let advance st =
  if not (eof st) then begin
    if st.src.[st.pos] = '\n' then begin
      st.line <- st.line + 1;
      st.col <- 1
    end
    else st.col <- st.col + 1;
    st.pos <- st.pos + 1
  end

let expect st c =
  if peek st <> c then fail st (Printf.sprintf "expected %C, got %C" c (peek st));
  advance st

let expect_str st s =
  String.iter (fun c -> expect st c) s

let looking_at st s =
  let n = String.length s in
  st.pos + n <= String.length st.src && String.sub st.src st.pos n = s

let skip_str st s =
  if looking_at st s then begin
    String.iter (fun _ -> advance st) s;
    true
  end
  else false

let is_space c = c = ' ' || c = '\t' || c = '\n' || c = '\r'

let skip_ws st =
  while (not (eof st)) && is_space (peek st) do
    advance st
  done

let is_name_start c =
  (c >= 'a' && c <= 'z')
  || (c >= 'A' && c <= 'Z')
  || c = '_' || c = ':'
  || Char.code c >= 128

let is_name_char c =
  is_name_start c || (c >= '0' && c <= '9') || c = '-' || c = '.'

(* Skip the name at the cursor; its first position. *)
let scan_name st =
  if not (is_name_start (peek st)) then fail st "expected a name";
  let start = st.pos in
  while (not (eof st)) && is_name_char (peek st) do
    advance st
  done;
  start

let parse_name st =
  let start = scan_name st in
  String.sub st.src start (st.pos - start)

(* A tag or attribute name, as the one string the parse keeps for it:
   elements that share a name share its bytes, and only its first
   occurrence is copied out of the source. *)
let parse_shared_name st =
  let start = scan_name st in
  Names.intern st.names (Bytes.unsafe_of_string st.src) start (st.pos - start)

(* &lt; &gt; &amp; &apos; &quot; &#NNN; &#xHHH; *)
let parse_entity st buf =
  expect st '&';
  if peek st = '#' then begin
    advance st;
    let hex = peek st = 'x' || peek st = 'X' in
    if hex then advance st;
    let start = st.pos in
    while peek st <> ';' && not (eof st) do
      advance st
    done;
    let digits = String.sub st.src start (st.pos - start) in
    expect st ';';
    let code =
      try int_of_string (if hex then "0x" ^ digits else digits)
      with Failure _ -> fail st "malformed character reference"
    in
    if code < 0 || code > 0x10FFFF then fail st "character reference out of range";
    (* UTF-8 encode. *)
    if code < 0x80 then Buffer.add_char buf (Char.chr code)
    else if code < 0x800 then begin
      Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
      Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
    end
    else if code < 0x10000 then begin
      Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
      Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
    end
    else begin
      Buffer.add_char buf (Char.chr (0xF0 lor (code lsr 18)));
      Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 12) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
    end
  end
  else begin
    let name = parse_name st in
    expect st ';';
    match name with
    | "lt" -> Buffer.add_char buf '<'
    | "gt" -> Buffer.add_char buf '>'
    | "amp" -> Buffer.add_char buf '&'
    | "apos" -> Buffer.add_char buf '\''
    | "quot" -> Buffer.add_char buf '"'
    | other -> fail st (Printf.sprintf "unknown entity &%s;" other)
  end

let parse_attr_value st =
  let quote = peek st in
  if quote <> '"' && quote <> '\'' then fail st "expected quoted attribute value";
  advance st;
  let buf = Buffer.create 16 in
  let rec go () =
    if eof st then fail st "unterminated attribute value"
    else if peek st = quote then advance st
    else if peek st = '&' then begin
      parse_entity st buf;
      go ()
    end
    else if peek st = '<' then fail st "'<' in attribute value"
    else begin
      Buffer.add_char buf (peek st);
      advance st;
      go ()
    end
  in
  go ();
  Buffer.contents buf

let parse_attributes st =
  let rec go acc =
    skip_ws st;
    if is_name_start (peek st) then begin
      let name = parse_shared_name st in
      skip_ws st;
      expect st '=';
      skip_ws st;
      let value = parse_attr_value st in
      if List.mem_assoc name acc then
        fail st (Printf.sprintf "duplicate attribute %s" name);
      go ((name, value) :: acc)
    end
    else List.rev acc
  in
  go []

let skip_until st terminator what =
  let rec go () =
    if eof st then fail st (Printf.sprintf "unterminated %s" what)
    else if skip_str st terminator then ()
    else begin
      advance st;
      go ()
    end
  in
  go ()

let parse_comment st =
  (* Cursor is just past "<!--". *)
  let start = st.pos in
  let rec find () =
    if eof st then fail st "unterminated comment"
    else if looking_at st "-->" then ()
    else begin
      advance st;
      find ()
    end
  in
  find ();
  let body = String.sub st.src start (st.pos - start) in
  expect_str st "-->";
  body

let parse_pi st =
  (* Cursor is just past "<?". *)
  let target = parse_name st in
  skip_ws st;
  let start = st.pos in
  let rec find () =
    if eof st then fail st "unterminated processing instruction"
    else if looking_at st "?>" then ()
    else begin
      advance st;
      find ()
    end
  in
  find ();
  let data = String.sub st.src start (st.pos - start) in
  expect_str st "?>";
  (target, data)

let parse_cdata st =
  (* Cursor is just past "<![CDATA[". *)
  let start = st.pos in
  let rec find () =
    if eof st then fail st "unterminated CDATA section"
    else if looking_at st "]]>" then ()
    else begin
      advance st;
      find ()
    end
  in
  find ();
  let body = String.sub st.src start (st.pos - start) in
  expect_str st "]]>";
  body

(* DOCTYPE is skipped; the internal subset is bracket-matched. *)
let skip_doctype st =
  let rec go () =
    if eof st then fail st "unterminated DOCTYPE"
    else
      match peek st with
      | '[' ->
        advance st;
        skip_until st "]" "DOCTYPE internal subset";
        go ()
      | '>' -> advance st
      | _ ->
        advance st;
        go ()
  in
  go ()

let is_all_whitespace s = String.for_all is_space s

(* Siblings accumulate in reverse and are attached with one bulk
   [Dom.append_children] per parent — per-child [append_child] is O(degree)
   and turns wide elements quadratic. *)
let rec parse_content st (parent : Dom.t) =
  Dom.append_children parent (parse_siblings st [])

and parse_siblings st acc =
  if eof st then List.rev acc
  else if looking_at st "</" then List.rev acc
  else if looking_at st "<!--" then begin
    expect_str st "<!--";
    let body = parse_comment st in
    parse_siblings st (Dom.comment body :: acc)
  end
  else if looking_at st "<![CDATA[" then begin
    expect_str st "<![CDATA[";
    let body = parse_cdata st in
    parse_siblings st (Dom.text body :: acc)
  end
  else if looking_at st "<?" then begin
    expect_str st "<?";
    let target, data = parse_pi st in
    parse_siblings st (Dom.pi target data :: acc)
  end
  else if peek st = '<' then begin
    let child = parse_element st in
    parse_siblings st (child :: acc)
  end
  else begin
    let buf = Buffer.create 32 in
    let rec go () =
      if eof st || peek st = '<' then ()
      else if peek st = '&' then begin
        parse_entity st buf;
        go ()
      end
      else begin
        Buffer.add_char buf (peek st);
        advance st;
        go ()
      end
    in
    go ();
    let s = Buffer.contents buf in
    let acc =
      if String.length s > 0 && (st.keep_whitespace || not (is_all_whitespace s))
      then Dom.text s :: acc
      else acc
    in
    parse_siblings st acc
  end

and parse_element st =
  (* Recursion is bounded so hostile input exhausts the depth budget with a
     clean Parse_error instead of the process stack. *)
  st.depth <- st.depth + 1;
  if st.depth > st.max_depth then
    fail st
      (Printf.sprintf "element nesting deeper than %d (max_depth)" st.max_depth);
  expect st '<';
  let tag = parse_shared_name st in
  let attrs = parse_attributes st in
  let node = Dom.element ~attrs tag in
  skip_ws st;
  let node =
    if skip_str st "/>" then node
    else begin
      expect st '>';
      parse_content st node;
      expect_str st "</";
      let close = parse_shared_name st in
      if close != tag then
        fail st
          (Printf.sprintf "mismatched end tag: <%s> closed by </%s>" tag close);
      skip_ws st;
      expect st '>';
      node
    end
  in
  st.depth <- st.depth - 1;
  node

let parse_prolog st doc =
  skip_ws st;
  if looking_at st "<?xml" then begin
    expect_str st "<?";
    let _target, _data = parse_pi st in
    ()
  end;
  let rec misc () =
    skip_ws st;
    if looking_at st "<!--" then begin
      expect_str st "<!--";
      Dom.append_child doc (Dom.comment (parse_comment st));
      misc ()
    end
    else if looking_at st "<!DOCTYPE" then begin
      expect_str st "<!DOCTYPE";
      skip_doctype st;
      misc ()
    end
    else if looking_at st "<?" then begin
      expect_str st "<?";
      let target, data = parse_pi st in
      Dom.append_child doc (Dom.pi target data);
      misc ()
    end
  in
  misc ()

let parse_string ?(keep_whitespace = false) ?(max_depth = 10_000) src =
  let st =
    { src; pos = 0; line = 1; col = 1; keep_whitespace; max_depth; depth = 0;
      names = Names.create () }
  in
  let doc = Dom.document () in
  parse_prolog st doc;
  skip_ws st;
  if peek st <> '<' then fail st "expected root element";
  let root = parse_element st in
  Dom.append_child doc root;
  (* Trailing misc: comments, PIs, whitespace. *)
  let rec trailer () =
    skip_ws st;
    if looking_at st "<!--" then begin
      expect_str st "<!--";
      Dom.append_child doc (Dom.comment (parse_comment st));
      trailer ()
    end
    else if looking_at st "<?" then begin
      expect_str st "<?";
      let target, data = parse_pi st in
      Dom.append_child doc (Dom.pi target data);
      trailer ()
    end
    else if not (eof st) then fail st "content after root element"
  in
  trailer ();
  doc

let parse_file ?keep_whitespace ?max_depth path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let src = really_input_string ic n in
  close_in ic;
  parse_string ?keep_whitespace ?max_depth src
