(** Deterministic fault injection under the storage layer.

    Wraps a {!Ruid.Vfs.t} so that file traffic suffers the failures real
    disks produce — short (torn) writes, flipped bits on read, transient
    errors — drawn from a seeded generator, so every failing schedule is
    exactly reproducible from its seed.  This is what lets the test suite
    assert crash recovery rather than hope for it.

    Injected failures surface as:
    - {!Ruid.Vfs.Crash} after a short write: the prefix reached the file,
      the process is presumed dead.  Only recovery code runs afterwards.
    - corrupted [load] results (single flipped bit) — the checksums in
      {!Ruid.Persist} sidecars (v3 and v4) and {!Wal} records must catch these.
    - {!Ruid.Vfs.Transient} bursts — absorbed by {!Ruid.Vfs.with_retries}
      as long as the burst is shorter than the retry budget. *)

type event =
  | Short_write of { path : string; kept : int; intended : int }
  | Bit_flip of { path : string; bit : int }
  | Transient_error of { path : string; op : string }

val pp_event : Format.formatter -> event -> unit

type plan

val plan :
  seed:int ->
  ?p_short_write:float ->
  ?p_bit_flip:float ->
  ?p_transient:float ->
  ?transient_burst:int ->
  unit ->
  plan
(** A fault plan.  Probabilities default to 0 (no injection of that kind);
    [transient_burst] (default 2) is how many consecutive calls fail with
    {!Ruid.Vfs.Transient} once a transient fault fires — keep it below the
    caller's retry budget for faults that must be survivable. *)

val wrap : plan -> Ruid.Vfs.t -> Ruid.Vfs.t
(** Route a vfs through the plan.  [store]/[append] may keep only a random
    prefix and raise {!Ruid.Vfs.Crash}; [load] may flip one random bit of
    the returned bytes; any operation may open a transient burst. *)

val torn_stream : plan -> string -> string option
(** Replication-stream face of the short-write machinery: with the plan's
    [p_short_write] probability, decide the connection died after a random
    prefix of [data] — [Some prefix] (possibly empty) means the follower
    received only that much and must reconnect/resume; [None] means the
    chunk arrived whole.  Counted as a {!Short_write} event. *)

val events : plan -> event list
(** Everything injected so far, oldest first. *)

val clear_events : plan -> unit

(** {1 Directed damage (no plan needed)} *)

val torn_tail : ?vfs:Ruid.Vfs.t -> string -> keep:int -> unit
(** Truncate the file to its first [keep] bytes — the canonical torn-write
    crash image. *)

val flip_bit : ?vfs:Ruid.Vfs.t -> string -> bit:int -> unit
(** Flip the given bit (bit 0 = LSB of byte 0) in place — the canonical
    silent-corruption image.
    @raise Invalid_argument if the bit is out of range. *)
