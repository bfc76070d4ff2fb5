let enabled = Trace.enabled
let set_enabled = Trace.set_enabled

let with_ ?(cat = "task") ?(attrs = []) ~name f =
  if not (Trace.enabled ()) then f ()
  else begin
    Trace.begin_ ~name ~cat ~attrs;
    match f () with
    | r ->
      Trace.end_ ~name;
      r
    | exception e ->
      Trace.end_ ~name;
      raise e
  end
