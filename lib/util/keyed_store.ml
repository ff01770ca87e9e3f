(** A directory of keyed entries: the one implementation behind the
    persistent result and arena caches.

    Each entry is one file named by the digest of its key, holding an
    envelope — magic tag, varint format version, the full key — around
    the cache's own payload.  Echoing the key makes a digest collision
    or a stale file decode to [Key_mismatch] instead of a wrong value.

    Reads are total: an entry that fails to decode (torn write, bit rot,
    version bump, trailing bytes) is deleted and counted under
    [corrupt_dropped], and the caller recomputes.  Stores go through
    {!Durable.write_atomic} and are best effort: a failure (read-only or
    bogus directory, disk full) is swallowed and counted under
    [write_failures], because a cache must never abort the work whose
    result it was about to keep.

    No .mli: the module is two signatures and a functor sealed by one
    of them, which an interface file would repeat verbatim. *)

type counters = { write_failures : int; corrupt_dropped : int }

(** What a cache supplies. *)
module type SPEC = sig
  type value

  val magic : string
  val format_version : int

  val extension : string
  (** Entry file suffix, with its dot (e.g. [".res"]). *)

  val stage : Whisper_error.stage
  (** The stage decode errors carry. *)

  val counter_prefix : string
  (** Telemetry counters are [<prefix>.loads], [.stores],
      [.corrupt_dropped] and [.write_failures]. *)

  val write : Binio.Writer.t -> value -> unit
  val read : Binio.Reader.t -> value
end

(** What every store offers (each cache's .mli includes it). *)
module type S = sig
  type t
  type value

  type nonrec counters = counters = {
    write_failures : int;
    corrupt_dropped : int;
  }

  val create :
    ?corrupt:(key:string -> bytes -> bytes) -> dir:string -> unit -> t
  (** Create the directory (and parents) if needed.  [corrupt] is a
      read-path hook applied to entry bytes before decoding, used by
      the fault-injection harness to model on-disk bit rot. *)

  val dir : t -> string

  val counters : t -> counters
  (** Snapshot of the degradation counters accumulated so far. *)

  val path : t -> key:string -> string
  (** The entry file a given key maps to (for tests/tooling). *)

  val find : t -> key:string -> value option
  (** [None] on a miss or a dropped corrupt entry. *)

  val store : t -> key:string -> value -> unit
  (** Best effort, as above. *)

  val encode : key:string -> value -> bytes

  val decode : key:string -> bytes -> (value, Whisper_error.t) result
  (** Total: corrupt input, version skew and key mismatch come back as
      typed [Error]s carrying the byte offset of the fault. *)

  val decode_exn : key:string -> bytes -> value
  val format_version : int
end

module Make (Spec : SPEC) : S with type value = Spec.value = struct
  type value = Spec.value

  type nonrec counters = counters = {
    write_failures : int;
    corrupt_dropped : int;
  }

  let format_version = Spec.format_version

  type t = {
    cache_dir : string;
    corrupt : (key:string -> bytes -> bytes) option;
    n_write_failures : int Atomic.t;
    n_corrupt_dropped : int Atomic.t;
  }

  let metric name = Telemetry.counter (Spec.counter_prefix ^ "." ^ name)
  let m_loads = metric "loads"
  let m_stores = metric "stores"
  let m_corrupt = metric "corrupt_dropped"
  let m_write_failures = metric "write_failures"

  let create ?corrupt ~dir () =
    Durable.mkdir_p dir;
    {
      cache_dir = dir;
      corrupt;
      n_write_failures = Atomic.make 0;
      n_corrupt_dropped = Atomic.make 0;
    }

  let dir t = t.cache_dir

  let counters t =
    {
      write_failures = Atomic.get t.n_write_failures;
      corrupt_dropped = Atomic.get t.n_corrupt_dropped;
    }

  let path t ~key =
    Filename.concat t.cache_dir
      (Digest.to_hex (Digest.string key) ^ Spec.extension)

  let encode ~key v =
    let w = Binio.Writer.create () in
    Binio.Writer.magic w Spec.magic;
    Binio.Writer.varint w format_version;
    Binio.Writer.string w key;
    Spec.write w v;
    Binio.Writer.contents w

  let decode_exn ~key b =
    let r = Binio.Reader.create b in
    Binio.Reader.magic r Spec.magic;
    let voff = Binio.Reader.pos r in
    let v = Binio.Reader.varint r in
    if v <> format_version then
      Whisper_error.raise_error ~offset:voff ~context:key Spec.stage
        (Whisper_error.Version_mismatch { got = v; expected = format_version });
    let koff = Binio.Reader.pos r in
    let k = Binio.Reader.string r in
    if k <> key then
      Whisper_error.raise_error ~offset:koff ~context:key Spec.stage
        Whisper_error.Key_mismatch;
    let value = Spec.read r in
    if not (Binio.Reader.eof r) then
      Whisper_error.raise_error ~offset:(Binio.Reader.pos r) ~context:key
        Spec.stage Whisper_error.Trailing_bytes;
    value

  let decode ~key b =
    Whisper_error.protect ~context:key Spec.stage (fun () -> decode_exn ~key b)

  let find t ~key =
    let file = path t ~key in
    let hooked b = match t.corrupt with None -> b | Some f -> f ~key b in
    match Durable.read file with
    | None -> None
    | Some b -> (
        match decode ~key (hooked b) with
        | Ok v ->
            Telemetry.incr m_loads;
            Some v
        | Error _ ->
            (try Sys.remove file with Sys_error _ -> ());
            Atomic.incr t.n_corrupt_dropped;
            Telemetry.incr m_corrupt;
            None)

  let store t ~key v =
    match Durable.write_atomic (path t ~key) (encode ~key v) with
    | () -> Telemetry.incr m_stores
    | exception (Sys_error _ | Unix.Unix_error _) ->
        Atomic.incr t.n_write_failures;
        Telemetry.incr m_write_failures
end
