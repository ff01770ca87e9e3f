(** Packed trace-replay arena: decode-once, replay-many event buffers.

    An arena materializes the first [events] events of an {!App_model}
    walk into structure-of-arrays buffers — [block] / [pc] / [instrs] /
    [next_addr] as flat [int array]s plus a taken bitset in [Bytes.t] —
    so every consumer (profiler, timing model, technique runtimes)
    replays the stream by index with zero per-event allocation, instead
    of re-generating it through a closure that builds a fresh
    {!Branch.event} record per call.

    Sharing contract: an arena is immutable after {!build} (or a codec
    {!read}); pool domains replay the same arena concurrently without
    copying or locking.  The indexed accessors are unchecked for speed —
    callers iterate [0 .. length t - 1], which every in-tree replay loop
    establishes once up front. *)

type t = private {
  n : int;
  block : int array;
  pc : int array;
  instrs : int array;
  next_addr : int array;
  taken : Bytes.t;  (** bit [i] of byte [i/8] *)
}
(** Read-only views of the packed buffers, for per-event loops in other
    modules: under dune's default [-opaque] builds a call to the
    accessors below is a closure call that is never inlined, so hot
    loops index these arrays themselves.  Event [i < n] is index [i] of
    each array and bit [i] of [taken]; the arrays may be longer than [n].
    Never write to them: pool domains share one arena. *)

val build : events:int -> App_model.t -> t
(** Advance [model] by [events] events (via {!App_model.fill}), packing
    them into a fresh arena.  The stream is byte-identical to what the
    same model would have produced through {!App_model.source}. *)

val of_source : events:int -> Branch.source -> t
(** Pack the next [events] events of a closure source. *)

val length : t -> int

(** {2 Indexed replay (hot path — bounds are NOT checked)} *)

val block : t -> int -> int
val pc : t -> int -> int
val instrs : t -> int -> int
val next_addr : t -> int -> int
val taken : t -> int -> bool

(** {2 Oracle accessors (allocating; for differential tests and
    closure-source consumers)} *)

val event : t -> int -> Branch.event
(** Rebuild event [i] as a record.
    @raise Invalid_argument out of bounds. *)

val source : t -> Branch.source
(** A replaying closure over the arena, emitting events [0 .. length-1]
    in order and failing once exhausted.  Each call to [source] starts an
    independent replay cursor. *)

(** {2 Versioned codec}

    Total on corrupt input: all failures surface as typed
    {!Whisper_util.Whisper_error} values (stage [Arena_cache]), with
    counts validated against the remaining input before any allocation. *)

val write : Whisper_util.Binio.Writer.t -> t -> unit
val read : Whisper_util.Binio.Reader.t -> t
val to_bytes : t -> bytes

val of_bytes : bytes -> (t, Whisper_util.Whisper_error.t) result
(** Decode a standalone encoding, rejecting trailing bytes. *)

val digest : t -> string
(** Content hash (hex) of the packed encoding — used by tests to assert
    byte-identical arenas across job counts and cache round-trips. *)

val equal : t -> t -> bool
