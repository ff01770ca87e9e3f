type t = {
  name : string;
  predict : pc:int -> bool;
  train : pc:int -> taken:bool -> unit;
  spectate : pc:int -> taken:bool -> unit;
  storage_bits : int;
  is_oracle : bool;
}

module Compiled = struct
  type t = {
    name : string;
    storage_bits : int;
    fill :
      arena:Whisper_trace.Arena.t -> n:int -> verdicts:Bytes.t -> unit;
  }
end

let exec_hybrid t ~decision ~pc ~taken =
  if decision >= 0 then begin
    t.spectate ~pc ~taken;
    decision = Bool.to_int taken
  end
  else begin
    let pred = t.predict ~pc in
    t.train ~pc ~taken;
    t.is_oracle || pred = taken
  end

let always_taken () =
  {
    name = "always-taken";
    predict = (fun ~pc:_ -> true);
    train = (fun ~pc:_ ~taken:_ -> ());
    spectate = (fun ~pc:_ ~taken:_ -> ());
    storage_bits = 0;
    is_oracle = false;
  }

let ideal () =
  {
    name = "ideal";
    predict = (fun ~pc:_ -> true);
    train = (fun ~pc:_ ~taken:_ -> ());
    spectate = (fun ~pc:_ ~taken:_ -> ());
    storage_bits = 0;
    is_oracle = true;
  }
