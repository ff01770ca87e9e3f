(** Append-only, checksummed completion journal for crash-safe sweeps
    and serve runs.

    The journal is the write-ahead record of work-item outcomes: one
    self-contained record per completed or quarantined item, appended
    (and fsync'd) before the item is considered done.  A process killed
    with [SIGKILL] at any instant therefore leaves either a fully
    decodable journal, or one with a torn final record — and recovery
    handles the torn case by {e truncating} the corrupt suffix
    ({!Durable.write_atomic}) and counting what was dropped, so the
    affected items simply re-run.  {!open_or_resume} binds a journal to
    its manifest in a state directory (DESIGN.md §17).

    Records carry a marker byte, a length-guarded varint payload size
    and an 8-byte payload digest; the header binds the journal to one
    {!Manifest} id.  All decode failures are typed {!Whisper_error.t}s
    with stage [Journal] — corrupt bytes can never crash recovery. *)

type status = Done | Quarantined

type entry = { key : string; status : status; detail : string }
(** [detail] is the result digest for [Done] entries (re-verified
    against the result cache on resume) and the failure reason for
    [Quarantined] ones. *)

type t
(** An open journal, positioned for appends. *)

type recovery = {
  entries : entry list;  (** decodable records, in append order *)
  dropped_bytes : int;  (** corrupt suffix truncated away *)
  corrupt_tail : bool;  (** whether truncation happened *)
}

val format_version : int

val create : path:string -> manifest_id:string -> t
(** Start a fresh journal bound to [manifest_id], atomically replacing
    any existing file.  Creates parent directories. *)

val open_existing :
  path:string -> manifest_id:string -> (t * recovery, Whisper_error.t) result
(** Recover an existing journal: verify the header (typed [Error] on a
    missing or unreadable file, bad magic, version skew or a different
    manifest id — the caller then starts fresh), decode records until
    the first corrupt one, truncate the corrupt suffix in place (atomic
    rewrite), and return the journal opened for further appends. *)

val append : t -> entry -> unit
(** Append one record and push it to the OS before returning.  Write
    failures raise [Sys_error]/[Unix_error] — a sweep that cannot
    journal must not pretend to be resumable. *)

val close : t -> unit
val path : t -> string

val entry_equal : entry -> entry -> bool

type opened = {
  journal : t;  (** open for appends *)
  last : (string, entry) Hashtbl.t;
      (** the last recovered record per key; empty when fresh *)
  recovered : bool;  (** an existing journal was resumed *)
  dropped : int;  (** torn-tail bytes truncated away *)
}

val open_or_resume : dir:string -> resume:bool -> Manifest.t -> opened
(** The journal of state directory [dir] ([manifest.bin],
    [journal.bin]).  With [resume], a stored manifest of the same id and
    a journal that {!open_existing} recovers are resumed; otherwise
    [manifest] is saved and a fresh journal created, so a config change
    starts over.  Callers replay [last] and keep their own counters. *)

(** {2 Codec internals, exposed for fuzzing} *)

val encode_header : manifest_id:string -> bytes
val encode_entry : entry -> bytes

val decode_all :
  manifest_id:string -> bytes -> (recovery, Whisper_error.t) result
(** Pure recovery over raw journal bytes: header errors come back as
    [Error]; record corruption is absorbed into the returned
    {!recovery} (prefix entries + dropped byte count).  Total on any
    input. *)
