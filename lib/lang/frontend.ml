let c_files = Obs.Metrics.counter "frontend.files"
let c_bytes = Obs.Metrics.counter "frontend.bytes"
let h_parse = Obs.Metrics.histogram "frontend.parse.ns"

let parse_string ~file src =
  Obs.Span.with_ ~cat:"pu" ~name:("parse:" ^ Filename.basename file)
  @@ fun () ->
  Obs.Metrics.Counter.incr c_files;
  Obs.Metrics.Counter.add c_bytes (String.length src);
  let mt = Obs.Metrics.enabled () in
  let t0 = if mt then Obs.Trace.now_ns () else 0 in
  let r =
    match String.lowercase_ascii (Filename.extension file) with
    | ".f" | ".f77" | ".f90" | ".for" -> Parser_f.parse ~file src
    | ".c" -> Parser_c.parse ~file src
    | ext ->
      Diag.error
        (Loc.make ~file ~line:1 ~col:1)
        "unknown source extension %S (expected .f/.f90/.c)" ext
  in
  if mt then Obs.Hist.observe h_parse (Obs.Trace.now_ns () - t0);
  r

let parse_file path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let src = really_input_string ic len in
  close_in ic;
  parse_string ~file:path src

let analyze asts =
  Obs.Span.with_ ~cat:"phase" ~name:"sema" (fun () -> Sema.analyze asts)

let load ~files =
  Obs.Span.with_ ~cat:"phase" ~name:"frontend" @@ fun () ->
  analyze (List.map (fun (file, src) -> parse_string ~file src) files)
