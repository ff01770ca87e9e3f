open Whisper_util
open Whisper_trace

module Spec = struct
  type value = Arena.t

  let magic = "WARC"

  (* the envelope's own version, on top of the arena codec's *)
  let format_version = 1
  let extension = ".arena"
  let stage = Whisper_error.Arena_cache
  let counter_prefix = "arena_cache"
  let write = Arena.write
  let read = Arena.read
end

include Keyed_store.Make (Spec)

let default_subdir = "arenas"
