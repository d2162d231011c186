(** Tokeniser for the small declaration language used by the [cfdprop] CLI:
    schemas, CFDs and SPC views. *)

type token =
  | Ident of string
  | Int of int
  | String of string  (** ['…'] literal *)
  | Lparen
  | Rparen
  | Lbracket
  | Rbracket
  | Comma
  | Semicolon
  | Colon
  | Equal
  | Arrow  (** [->] *)
  | Eqeq  (** [==] *)
  | Le  (** [<=], the CIND inclusion arrow *)
  | Eof  (** end of input; {!next} returns it from then on *)

val pp_token : token Fmt.t

(** [Error (msg, offset)]: bad input at byte [offset]. *)
exception Error of string * int

(** A lexing buffer: the input and the offset of the next token. *)
type t

val of_string : string -> t

(** [next b] lexes the token at [b]'s offset and moves past it; [#]
    starts a comment to end of line.  The parser pulls its tokens this
    way, one at a time.  Raises {!Error} on bad input, such as an
    unterminated string or an integer literal out of range. *)
val next : t -> token

(** [tokenize s] is every token of [s] before {!Eof}, or
    [Error (msg, offset)] for the first bad input. *)
val tokenize : string -> (token list, string * int) result
