(** Writers and parsers for the three plain-file formats the compiler side
    emits and the Dragon side loads (paper, Section V-B step 2: "A bunch of
    files will be generated that includes .dgn, .cfg and .rgn files").

    - [.rgn]: CSV, one {!Row.t} per line, with a header line;
    - [.dgn]: the project file — source files, procedure list, and the call
      graph edges ("caller,callee,line" records);
    - [.cfg]: per-procedure control-flow blocks ("proc,block,label,succs"). *)

type dgn = {
  dgn_sources : (string * string) list;  (** (path, language) *)
  dgn_procs : (string * string * int) list;  (** (name, file, line) *)
  dgn_edges : (string * string * int) list;  (** (caller, callee, line) *)
}

type cfg_block = {
  cb_proc : string;
  cb_id : int;
  cb_label : string;
  cb_succs : int list;
}

type text = Buffer.t -> yield:(unit -> unit) -> unit
(** A file's text as a producer: it appends the text to the buffer and
    calls [yield ()] after each record, where a consumer may take the
    buffer's bytes away ({!save_text} does, every 64 KiB), so no output
    is held whole.  A producer appends the same bytes every time it
    runs. *)

val to_string : text -> string

val split_csv : string -> string list
(** Fields containing commas or quotes are double-quoted on output; this
    undoes that encoding. *)

val join_csv : string list -> string

val rgn : Row.t list -> text
(** The header, then one {!Row.add_record} per row. *)

val parse_rgn : string -> (Row.t list, string) result

val dgn : dgn -> text

val parse_dgn : string -> (dgn, string) result

val add_cfg_block :
  Buffer.t -> proc:string -> id:int -> label:string -> succs:int list -> unit
(** Appends one [.cfg] record, ["proc,id,label,s1;s2;..."]: the writer
    behind every [.cfg] file. *)

val parse_cfg : string -> (cfg_block list, string) result

val save : path:string -> string -> unit
(** {!save_text} for a text already held whole: the string is compared
    and written as it is. *)

val save_text : path:string -> text -> unit
(** Writes the text to [path] unless [path] is a regular file that
    already holds exactly those bytes: that file is compared with the
    text as it is produced, in 64 KiB windows, and left untouched (mtime
    included) when they agree, which the [files.unchanged] counter
    counts.  At the first difference the compare stops and the text is
    produced again into the truncated file.  Any other destination (none,
    a FIFO, a device) is written directly.  If the text raises while the
    file is being written, the file is removed (a FIFO or a device is
    not), so no partial file is left behind; if it raises while being
    compared, the file is left as it was.  [files.saves] counts calls,
    [files.save_bytes] the bytes written. *)

val load : path:string -> string
