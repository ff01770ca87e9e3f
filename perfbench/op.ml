(* What a workload hands the main loop in main.ml. *)

type t = {
  label : string;
  events : int;  (** branch events the op handles *)
  run : unit -> (string * string) list;  (** (check key, digest) pairs *)
}

type workload = {
  cycle : int;  (** ops per cycle; a run holds whole cycles *)
  warmup : int list;  (** cycle slots run untimed at the end of set-up *)
  prepare : unit -> slot:int -> traced:bool -> t;
      (** the set-up builds; returns the op for each cycle slot, traced or
          not (traced runs trace every other cycle) *)
}

let apps = [ "finagle-http"; "python"; "cassandra"; "mysql" ]

let app name =
  match Whisper_trace.Workloads.by_name name with
  | Some c -> c
  | None -> invalid_arg ("unknown app " ^ name)
