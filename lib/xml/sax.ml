(* Event-stream layer over a chunked byte feed.  Events are pulled from a
   refill function through a fixed sliding window, so a document streams
   through memory bounded by tree depth plus one chunk — never by document
   size.  The string entry points are thin wrappers over a string-backed
   feed; the lexical subset, entity handling and nesting validation are
   those of Parser (tested equivalent). *)

type event =
  | Start_element of { tag : string; attrs : (string * string) list }
  | End_element of string
  | Text of string
  | Comment of string
  | Pi of string * string

let default_chunk = 65536

(* The window must cover the longest fixed lookahead token, "<![CDATA[". *)
let min_window = 16

type source = {
  refill : bytes -> int -> int -> int;
  mutable buf : bytes;  (* sliding window *)
  mutable pos : int;  (* read cursor into [buf] *)
  mutable len : int;  (* valid bytes in [buf] *)
  mutable seen_eof : bool;  (* refill returned 0 *)
  mutable line : int;
  mutable col : int;
}

let source_of_refill ?(chunk = default_chunk) refill =
  let cap = max chunk min_window in
  {
    refill;
    buf = Bytes.create cap;
    pos = 0;
    len = 0;
    seen_eof = false;
    line = 1;
    col = 1;
  }

let source_of_channel ?chunk ic =
  source_of_refill ?chunk (fun buf off len -> input ic buf off len)

let source_of_string s =
  let chunk = min default_chunk (max (String.length s) 1) in
  let sent = ref 0 in
  source_of_refill ~chunk (fun buf off len ->
      let n = min len (String.length s - !sent) in
      Bytes.blit_string s !sent buf off n;
      sent := !sent + n;
      n)

let source_position st = (st.line, st.col)

let fail st message =
  raise (Parser.Parse_error { Parser.line = st.line; col = st.col; message })

(* Slide the unread tail to the front of the window and pull bytes until at
   least [n] are available or the feed is dry.  [n] never exceeds the
   window for the fixed tokens; a larger demand grows the window so the
   invariant stays local. *)
let ensure st n =
  if st.len - st.pos < n && not st.seen_eof then begin
    if st.pos > 0 then begin
      Bytes.blit st.buf st.pos st.buf 0 (st.len - st.pos);
      st.len <- st.len - st.pos;
      st.pos <- 0
    end;
    if n > Bytes.length st.buf then begin
      let grown = Bytes.create (max n (2 * Bytes.length st.buf)) in
      Bytes.blit st.buf 0 grown 0 st.len;
      st.buf <- grown
    end;
    let pulling = ref true in
    while !pulling && st.len - st.pos < n do
      let got = st.refill st.buf st.len (Bytes.length st.buf - st.len) in
      if got = 0 then begin
        st.seen_eof <- true;
        pulling := false
      end
      else st.len <- st.len + got
    done
  end

let available st n =
  ensure st n;
  st.len - st.pos >= n

(* The byte primitives below are the per-character cost of the whole event
   layer, so each tests the common in-window case before touching the
   refill machinery — the window check is one compare, and [available]
   (hence [ensure]) runs only at a chunk boundary. *)

let eof st = st.pos >= st.len && not (available st 1)

let peek st =
  if st.pos < st.len then Bytes.unsafe_get st.buf st.pos
  else if available st 1 then Bytes.unsafe_get st.buf st.pos
  else '\000'

let peek2 st =
  if available st 2 then Bytes.unsafe_get st.buf (st.pos + 1) else '\000'

let advance st =
  if st.pos < st.len || available st 1 then begin
    if Bytes.unsafe_get st.buf st.pos = '\n' then begin
      st.line <- st.line + 1;
      st.col <- 1
    end
    else st.col <- st.col + 1;
    st.pos <- st.pos + 1
  end

let looking_at st s =
  let n = String.length s in
  available st n
  &&
  let rec eq i =
    i >= n || (Bytes.unsafe_get st.buf (st.pos + i) = s.[i] && eq (i + 1))
  in
  eq 0

(* Bulk-copy the maximal run of bytes differing from [s1] and [s2] into
   [buf], refilling as the window drains.  Text and comment/CDATA bodies
   are the bulk of real documents; feeding them byte-wise through the full
   markup dispatch is what would make the streaming parser slower than the
   string one. *)
let scan_plain st buf s1 s2 =
  let scanning = ref true in
  while !scanning do
    if st.pos >= st.len && not (available st 1) then scanning := false
    else begin
      let b = st.buf and lim = st.len in
      let i = ref st.pos in
      while
        !i < lim
        &&
        let c = Bytes.unsafe_get b !i in
        c <> s1 && c <> s2
      do
        incr i
      done;
      if !i > st.pos then begin
        Buffer.add_subbytes buf b st.pos (!i - st.pos);
        for j = st.pos to !i - 1 do
          if Bytes.unsafe_get b j = '\n' then begin
            st.line <- st.line + 1;
            st.col <- 1
          end
          else st.col <- st.col + 1
        done;
        st.pos <- !i
      end;
      if !i < lim then scanning := false
    end
  done

let skip_str st s =
  if looking_at st s then begin
    String.iter (fun _ -> advance st) s;
    true
  end
  else false

let expect st c =
  if peek st <> c then fail st (Printf.sprintf "expected %C, got %C" c (peek st));
  advance st

let expect_str st s = String.iter (fun c -> expect st c) s

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

let parse_name st =
  if not (is_name_start (peek st)) then fail st "expected a name";
  let b = Buffer.create 12 in
  while (not (eof st)) && is_name_char (peek st) do
    Buffer.add_char b (peek st);
    advance st
  done;
  Buffer.contents b

(* A tag or attribute name as the parse's one string for it.  The name is
   pulled whole into the window (growing it for a name longer than a
   chunk) and looked up there, so only its first occurrence is copied. *)
let parse_shared_name st names =
  if not (is_name_start (peek st)) then fail st "expected a name";
  let len = ref 1 in
  while
    (st.pos + !len < st.len || available st (!len + 1))
    && is_name_char (Bytes.unsafe_get st.buf (st.pos + !len))
  do
    incr len
  done;
  let name = Names.intern names st.buf st.pos !len in
  st.pos <- st.pos + !len;
  st.col <- st.col + !len;
  name

let add_codepoint buf code =
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

let parse_entity st buf =
  expect st '&';
  if peek st = '#' then begin
    advance st;
    let hex = peek st = 'x' || peek st = 'X' in
    if hex then advance st;
    let digits = Buffer.create 8 in
    while peek st <> ';' && not (eof st) do
      Buffer.add_char digits (peek st);
      advance st
    done;
    let digits = Buffer.contents digits in
    expect st ';';
    let code =
      try int_of_string (if hex then "0x" ^ digits else digits)
      with Failure _ -> fail st "malformed character reference"
    in
    if code < 0 || code > 0x10FFFF then fail st "character reference out of range";
    add_codepoint buf code
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

let parse_attributes st names =
  let rec go acc =
    skip_ws st;
    if is_name_start (peek st) then begin
      let name = parse_shared_name st names in
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

let scan_until st terminator what =
  let body = Buffer.create 32 in
  let t0 = terminator.[0] in
  let rec find () =
    scan_plain st body t0 t0;
    if looking_at st terminator then ()
    else if eof st then fail st (Printf.sprintf "unterminated %s" what)
    else begin
      (* a lone [t0] that does not open the terminator *)
      Buffer.add_char body (peek st);
      advance st;
      find ()
    end
  in
  find ();
  expect_str st terminator;
  Buffer.contents body

let skip_doctype st =
  let rec go () =
    if eof st then fail st "unterminated DOCTYPE"
    else
      match peek st with
      | '[' ->
        advance st;
        ignore (scan_until st "]" "DOCTYPE internal subset");
        go ()
      | '>' -> advance st
      | _ ->
        advance st;
        go ()
  in
  go ()

let is_all_whitespace s = String.for_all is_space s

let fold_source ?(keep_whitespace = false) ?(max_depth = 10_000) st ~init ~f =
  let acc = ref init in
  let emit e = acc := f !acc e in
  let stack = ref [] in
  let depth = ref 0 in
  let seen_root = ref false in
  let names = Names.create () in
  (* prolog *)
  skip_ws st;
  if looking_at st "<?xml" then begin
    expect_str st "<?";
    ignore (parse_name st);
    ignore (scan_until st "?>" "XML declaration")
  end;
  let flush_text buf =
    if Buffer.length buf > 0 then begin
      let s = Buffer.contents buf in
      Buffer.clear buf;
      if keep_whitespace || not (is_all_whitespace s) then
        if !stack <> [] then emit (Text s)
        else if not (is_all_whitespace s) then
          fail st "text outside the root element"
    end
  in
  let text_buf = Buffer.create 64 in
  (* Dispatch on the first two bytes; anything else is a text run handled
     by the bulk scanner.  The [`!`] arm falls through to [start_tag] on
     unknown markup so errors surface exactly as in the chained version
     ("expected a name" at the '!'). *)
  let start_tag () =
    flush_text text_buf;
    if !stack = [] && !seen_root then fail st "content after root element";
    advance st;
    let tag = parse_shared_name st names in
    let attrs = parse_attributes st names in
    skip_ws st;
    seen_root := true;
    if !depth + 1 > max_depth then
      fail st
        (Printf.sprintf "element nesting deeper than %d (max_depth)" max_depth);
    if skip_str st "/>" then begin
      emit (Start_element { tag; attrs });
      emit (End_element tag)
    end
    else begin
      expect st '>';
      emit (Start_element { tag; attrs });
      stack := tag :: !stack;
      incr depth
    end
  in
  let rec loop () =
    if eof st then ()
    else begin
      (match peek st with
      | '<' -> (
        match peek2 st with
        | '!' ->
          if looking_at st "<!--" then begin
            flush_text text_buf;
            expect_str st "<!--";
            emit (Comment (scan_until st "-->" "comment"))
          end
          else if looking_at st "<![CDATA[" then begin
            if !stack = [] then fail st "CDATA outside the root element";
            expect_str st "<![CDATA[";
            Buffer.add_string text_buf (scan_until st "]]>" "CDATA section")
          end
          else if looking_at st "<!DOCTYPE" then begin
            if !seen_root then fail st "DOCTYPE after the root element";
            expect_str st "<!DOCTYPE";
            skip_doctype st
          end
          else start_tag ()
        | '?' ->
          flush_text text_buf;
          expect_str st "<?";
          let target = parse_name st in
          skip_ws st;
          let data = scan_until st "?>" "processing instruction" in
          emit (Pi (target, data))
        | '/' ->
          flush_text text_buf;
          expect_str st "</";
          let tag = parse_shared_name st names in
          skip_ws st;
          expect st '>';
          (match !stack with
          | top :: rest when top = tag ->
            stack := rest;
            decr depth;
            emit (End_element tag)
          | top :: _ ->
            fail st
              (Printf.sprintf "mismatched end tag: <%s> closed by </%s>" top
                 tag)
          | [] -> fail st "end tag without open element")
        | _ -> start_tag ())
      | '&' ->
        if !stack = [] then fail st "entity outside the root element";
        parse_entity st text_buf
      | _ -> scan_plain st text_buf '<' '&');
      loop ()
    end
  in
  loop ();
  flush_text text_buf;
  if !stack <> [] then fail st "unterminated element";
  if not !seen_root then fail st "expected root element";
  !acc

let iter_source ?keep_whitespace ?max_depth st ~f =
  fold_source ?keep_whitespace ?max_depth st ~init:() ~f:(fun () e -> f e)

let fold ?keep_whitespace ?max_depth src ~init ~f =
  fold_source ?keep_whitespace ?max_depth (source_of_string src) ~init ~f

let iter ?keep_whitespace ?max_depth src ~f =
  fold ?keep_whitespace ?max_depth src ~init:() ~f:(fun () e -> f e)

let count_elements src =
  let tbl = Hashtbl.create 64 in
  iter src ~f:(function
    | Start_element { tag; _ } ->
      Hashtbl.replace tbl tag (1 + Option.value ~default:0 (Hashtbl.find_opt tbl tag))
    | End_element _ | Text _ | Comment _ | Pi _ -> ());
  tbl

let max_depth src =
  let depth = ref 0 and best = ref 0 in
  iter src ~f:(function
    | Start_element _ ->
      incr depth;
      if !depth > !best then best := !depth
    | End_element _ -> decr depth
    | Text _ | Comment _ | Pi _ -> ());
  !best

let build_dom_source ?keep_whitespace ?max_depth st =
  (* Children are collected in reverse per open node and attached with one
     bulk append when the node closes, keeping wide elements linear. *)
  let doc = Dom.document () in
  let stack = ref [ (doc, ref []) ] in
  let add n =
    match !stack with
    | (_, kids) :: _ -> kids := n :: !kids
    | [] -> assert false
  in
  iter_source ?keep_whitespace ?max_depth st ~f:(function
    | Start_element { tag; attrs } ->
      let e = Dom.element ~attrs tag in
      add e;
      stack := (e, ref []) :: !stack
    | End_element _ -> (
      match !stack with
      | (e, kids) :: rest ->
        Dom.append_children e (List.rev !kids);
        stack := rest
      | [] -> assert false)
    | Text s -> add (Dom.text s)
    | Comment s -> add (Dom.comment s)
    | Pi (t, d) -> add (Dom.pi t d));
  (match !stack with
  | [ (_, kids) ] -> Dom.append_children doc (List.rev !kids)
  | _ -> assert false);
  doc

let build_dom ?keep_whitespace ?max_depth src =
  build_dom_source ?keep_whitespace ?max_depth (source_of_string src)
