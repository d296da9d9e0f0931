"""Lexer unit tests."""

import hashlib

import pytest

from repro.corpus import all_apps
from repro.lang import LexError, tokenize
from repro.lang.tokens import TokenType


def types(source):
    return [t.type for t in tokenize(source)]


def test_empty_source_yields_only_eof():
    assert types("") == [TokenType.EOF]


def test_keywords_and_identifiers():
    toks = tokenize("class Foo extends Bar")
    assert [t.type for t in toks[:-1]] == [
        TokenType.CLASS, TokenType.IDENT, TokenType.EXTENDS, TokenType.IDENT,
    ]
    assert toks[1].value == "Foo"
    assert toks[3].value == "Bar"


def test_int_literal_value():
    toks = tokenize("42 0 123456")
    assert [t.value for t in toks[:-1]] == [42, 0, 123456]


def test_long_suffix_is_accepted():
    toks = tokenize("100L")
    assert toks[0].type is TokenType.INT_LITERAL
    assert toks[0].value == 100


def test_string_literal_with_escapes():
    toks = tokenize(r'"hello\n\"world\""')
    assert toks[0].type is TokenType.STRING_LITERAL
    assert toks[0].value == 'hello\n"world"'


def test_unterminated_string_raises():
    with pytest.raises(LexError):
        tokenize('"oops')


def test_unterminated_block_comment_raises():
    with pytest.raises(LexError):
        tokenize("/* never closed")


def test_line_comment_skipped():
    assert types("a // comment here\n b") == [
        TokenType.IDENT, TokenType.IDENT, TokenType.EOF,
    ]


def test_block_comment_skipped_and_lines_counted():
    toks = tokenize("a /* multi\nline */ b")
    assert toks[1].line == 2


def test_two_char_operators_win_over_one_char():
    assert types("== = <= < && !") == [
        TokenType.EQ, TokenType.ASSIGN, TokenType.LE, TokenType.LT,
        TokenType.AND, TokenType.NOT, TokenType.EOF,
    ]


def test_dollar_and_underscore_in_identifiers():
    toks = tokenize("$outer _private my$var")
    assert [t.value for t in toks[:-1]] == ["$outer", "_private", "my$var"]


def test_positions_are_tracked():
    toks = tokenize("a\n  b")
    assert (toks[0].line, toks[0].column) == (1, 1)
    assert (toks[1].line, toks[1].column) == (2, 3)


def test_unknown_character_raises():
    with pytest.raises(LexError):
        tokenize("a # b")


def test_annotation_token():
    assert types("@Override")[:1] == [TokenType.AT]


# Every (input, message, line, column) below was recorded from the
# character-at-a-time lexer the scanner replaced.
LEX_ERRORS = [
    ('"oops', "unterminated string literal", 1, 1),
    ('x = "a\nb";', "unterminated string literal", 1, 5),
    ('"bad \\q escape"', "unknown escape sequence \\q", 1, 6),
    ('"ok" "no\\x"', "unknown escape sequence \\x", 1, 9),
    ('"x\\', "unknown escape sequence \\", 1, 3),
    ('"x\\\n"', "unknown escape sequence \\\n", 1, 3),
    ("/* never closed", "unterminated block comment", 1, 1),
    ("a\n  /* one\ntwo\nthree", "unterminated block comment", 2, 3),
    ("/*/", "unterminated block comment", 1, 1),
    ("x = 12abc;", "malformed number near '12'", 1, 7),
    ("0x1F", "malformed number near '0'", 1, 2),
    ("x = 5é;", "malformed number near '5'", 1, 6),
    ("²a", "malformed number near '²'", 1, 2),
    ("a # b", "unexpected character '#'", 1, 3),
    ("`", "unexpected character '`'", 1, 1),
    ("a\tb\f", "unexpected character '\\x0c'", 1, 4),
    ("x = \xa0;", "unexpected character '\\xa0'", 1, 5),
    ('"tab\\t" ~', "unexpected character '~'", 1, 9),
    ("x = ½;", "unexpected character '½'", 1, 5),
    ("1½", "unexpected character '½'", 1, 2),
]


@pytest.mark.parametrize("source,message,line,column", LEX_ERRORS)
def test_lex_error_message_and_position(source, message, line, column):
    with pytest.raises(LexError) as info:
        tokenize(source, "t.mjava")
    err = info.value
    assert (err.message, err.line, err.column) == (message, line, column)
    assert str(err) == f"t.mjava:{line}:{column}: {message}"


def test_non_decimal_digit_is_a_lex_error_not_a_crash():
    # '²' passes str.isdigit but not int(); it used to escape as ValueError
    with pytest.raises(LexError) as info:
        tokenize("x = ²;")
    assert (info.value.message, info.value.line, info.value.column) == (
        "malformed number near '²'", 1, 5,
    )
    with pytest.raises(LexError) as info:
        tokenize("12²")
    assert (info.value.message, info.value.column) == (
        "malformed number near '12²'", 3,
    )


def triples(source):
    return [(t.type, t.value, t.column) for t in tokenize(source)]


def test_long_suffix_ends_the_number():
    assert triples("100Lx") == [
        (TokenType.INT_LITERAL, 100, 1), (TokenType.IDENT, "x", 5),
        (TokenType.EOF, "", 6),
    ]


def test_unicode_identifiers_and_decimal_digits():
    # letters start words, any alphanumeric continues one, and every
    # Unicode decimal digit is a digit
    assert triples("é x½ ١٢") == [
        (TokenType.IDENT, "é", 1), (TokenType.IDENT, "x½", 3),
        (TokenType.INT_LITERAL, 12, 6), (TokenType.EOF, "", 8),
    ]


def test_all_escapes_decode():
    assert tokenize(r'"\n\t\"\\\r\0"')[0].value == '\n\t"\\\r\0'


def test_corpus_token_stream_is_pinned():
    h = hashlib.sha256()
    for spec in all_apps():
        for t in tokenize(spec.source(), spec.filename):
            h.update(f"{t.type.name}\t{t.value!r}\t{t.line}\t{t.column}\n".encode())
    assert h.hexdigest() == (
        "4ed13024922bb0a13cce8d8091e6095d47178301ad30bd03793721d923e0b1f8"
    )
