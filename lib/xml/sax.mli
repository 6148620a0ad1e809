(** Streaming (SAX-style) XML parsing over a chunked byte feed.

    The event layer under {!Parser}: documents too large to hold as a DOM —
    or even as a string — can be scanned, filtered or counted in one pass.
    Events are pulled from a {!source}, a refill function feeding a fixed
    sliding window, so memory is bounded by element-nesting depth plus one
    chunk rather than document size.  Shares the lexical subset of
    {!Parser} (elements, attributes, text, CDATA, comments, PIs, skipped
    DOCTYPE, predefined and character entities) and the same nesting-depth
    budget. *)

type event =
  | Start_element of { tag : string; attrs : (string * string) list }
  | End_element of string
  | Text of string
  | Comment of string
  | Pi of string * string

(** {1 Sources}

    A source is single-use: one [fold_source] (or derived call) consumes
    it.  Tokens split across refill boundaries are handled transparently —
    the window slides and refills until the token is whole. *)

type source

val source_of_string : string -> source

val source_of_channel : ?chunk:int -> in_channel -> source
(** Pull [chunk]-byte reads (default 64 KiB) from the channel. *)

val source_of_refill : ?chunk:int -> (bytes -> int -> int -> int) -> source
(** [source_of_refill f]: [f buf off len] writes up to [len] bytes at
    [buf.(off)] and returns how many it wrote; 0 means end of input. *)

val source_position : source -> int * int
(** Current (line, column) of the read cursor — where a consumer stopped. *)

(** {1 Event folds} *)

val fold_source :
  ?keep_whitespace:bool -> ?max_depth:int -> source -> init:'a ->
  f:('a -> event -> 'a) -> 'a
(** [fold_source src ~init ~f] runs [f] over the event stream of the feed.
    Events arrive in document order; element nesting is validated, and
    nesting deeper than [max_depth] (default 10000, the {!Parser} budget)
    is rejected.  A fold makes one string per distinct tag and attribute
    name: every event naming it carries that string, as {!Parser} shares
    names in its tree.
    @raise Parser.Parse_error on malformed input. *)

val iter_source :
  ?keep_whitespace:bool -> ?max_depth:int -> source -> f:(event -> unit) -> unit

val fold :
  ?keep_whitespace:bool -> ?max_depth:int -> string -> init:'a ->
  f:('a -> event -> 'a) -> 'a
(** {!fold_source} over a string-backed feed. *)

val iter : ?keep_whitespace:bool -> ?max_depth:int -> string -> f:(event -> unit) -> unit

val count_elements : string -> (string, int) Hashtbl.t
(** Tag histogram in one pass, no tree built. *)

val max_depth : string -> int
(** Maximal element nesting depth in one pass. *)

val build_dom_source : ?keep_whitespace:bool -> ?max_depth:int -> source -> Dom.t
(** Assemble a DOM directly from the event feed — the document text is
    never materialized as one string. *)

val build_dom : ?keep_whitespace:bool -> ?max_depth:int -> string -> Dom.t
(** The DOM builder expressed as a fold over events; equivalent to
    {!Parser.parse_string} (tested against it). *)
