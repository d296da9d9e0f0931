"""Master-regex scanner for the MiniDroid dialect.

Supports line (``//``) and block (``/* */``) comments, decimal integers
with an optional ``L`` suffix, double-quoted strings with the common
escapes, identifiers and the keyword and punctuation tables in
:mod:`repro.lang.tokens`.  One compiled alternation matches every token
and every run of trivia; :func:`_lex_error` runs only where nothing
matches and names the problem at the position a reader would look.
"""

from __future__ import annotations

import re
from typing import List

from .errors import LexError
from .tokens import KEYWORDS, PUNCTUATION, Token, TokenType

_ESCAPES = {"n": "\n", "t": "\t", '"': '"', "\\": "\\", "r": "\r", "0": "\0"}
_ESCAPE = re.compile(r'\\(["\\ntr0])')
_PUNCT_TYPES = dict(PUNCTUATION)

# ``\w`` is exactly ``str.isalnum()`` plus ``_`` and ``\d`` exactly
# ``str.isdecimal()``, so words keep the Unicode alphabet of Java-style
# identifiers.  A word may still start with a non-decimal numeric such as
# ``½``; tokenize() rejects those, because a word starts with a letter.
# PUNCT refuses ``/*`` so that an unterminated block comment reaches
# _lex_error instead of lexing as SLASH STAR.
_TOKEN = re.compile(
    r"""
      (?P<TRIVIA> [ \t\r\n]+ | //[^\n]* | /\*.*?\*/ )
    | (?P<STRING> "[^"\\\n]*(?:\\["\\ntr0][^"\\\n]*)*" )
    | (?P<INT> \d+ ) (?: [lL] | (?![^\W_]) )
    | (?P<WORD> (?:[^\W\d]|\$) [\w$]* )
    | (?P<PUNCT> (?!/\*) (?:"""
    + "|".join(re.escape(text) for text, _ in PUNCTUATION)
    + "))",
    re.VERBOSE | re.DOTALL,
)


def tokenize(source: str, filename: str = "<source>") -> List[Token]:
    """Tokenize a source string into a list ending with an EOF token."""
    tokens: List[Token] = []
    append = tokens.append
    pos = line_start = 0
    line = 1
    for m in _TOKEN.finditer(source):
        start, end = m.span()
        if start != pos:
            break
        kind = m.lastgroup
        if kind == "TRIVIA":
            newlines = source.count("\n", start, end)
            if newlines:
                line += newlines
                line_start = source.rindex("\n", start, end) + 1
        elif kind == "WORD":
            word = m.group()
            if not (word[0].isalpha() or word[0] in "_$"):
                break
            append(Token(KEYWORDS.get(word, TokenType.IDENT), word,
                         line, start - line_start + 1))
        elif kind == "PUNCT":
            text = m.group()
            append(Token(_PUNCT_TYPES[text], text,
                         line, start - line_start + 1))
        elif kind == "INT":
            append(Token(TokenType.INT_LITERAL, int(m.group(kind)),
                         line, start - line_start + 1))
        else:  # STRING
            body = source[start + 1:end - 1]
            if "\\" in body:
                body = _ESCAPE.sub(lambda e: _ESCAPES[e[1]], body)
            append(Token(TokenType.STRING_LITERAL, body,
                         line, start - line_start + 1))
        pos = end
    if pos < len(source):
        raise _lex_error(source, pos, line, line_start, filename)
    append(Token(TokenType.EOF, "", line, pos - line_start + 1))
    return tokens


def _lex_error(source: str, pos: int, line: int, line_start: int,
               filename: str) -> LexError:
    """Diagnose the text at ``pos``, where no token matches.  No token
    spans a line, so every error lies on the line of ``pos``."""

    def error(index: int, message: str) -> LexError:
        return LexError(message, line, index - line_start + 1, filename)

    if source.startswith("/*", pos):
        return error(pos, "unterminated block comment")
    if source[pos] == '"':
        index = pos + 1
        while index < len(source) and source[index] not in '"\n':
            if source[index] == "\\":
                escape = source[index + 1:index + 2]
                if escape not in _ESCAPES:
                    return error(index, f"unknown escape sequence \\{escape}")
                index += 1
            index += 1
        return error(pos, "unterminated string literal")
    if source[pos].isdigit():
        end = pos
        while end < len(source) and source[end].isdigit():
            end += 1
        digits = source[pos:end]
        if source[end:end + 1].isalpha() and source[end] not in "lL":
            return error(end, f"malformed number near {digits!r}")
        decimal = re.match(r"\d*", digits).end()
        if decimal < len(digits):  # a digit such as '²' is not a decimal one
            return error(pos + decimal, f"malformed number near {digits!r}")
        pos = end
    return error(pos, f"unexpected character {source[pos]!r}")
