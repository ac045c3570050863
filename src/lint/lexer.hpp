#ifndef ASD_LINT_LEXER_HPP
#define ASD_LINT_LEXER_HPP

/**
 * @file
 * A small C++ tokenizer for asdlint. It is deliberately AST-free: the
 * lint rules only need identifiers, punctuation, literals, and
 * preprocessor directives with accurate line numbers. Comments are
 * not emitted as tokens, but `// asdlint:allow(rule,...)` suppression
 * markers found inside them are collected so the linter can honor
 * them.
 */

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace asd::lint
{

/** Lexical class of a token. */
enum class TokenKind : std::uint8_t
{
    Identifier, //!< identifiers and keywords (no distinction needed)
    Number,     //!< pp-number: integers, floats, user suffixes
    String,     //!< string literal incl. raw strings, text w/o quotes
    CharLit,    //!< character literal, text without quotes
    Punct,      //!< operator/punctuator, maximal munch
    Directive,  //!< one whole preprocessor directive, spliced
};

/** One token with its 1-based source line. */
struct Token
{
    TokenKind kind;
    std::string text;
    std::uint32_t line;
};

/**
 * A suppression comment: `// asdlint:allow(rule-a,rule-b): reason`
 * anywhere inside a comment. It silences the named rules' diagnostics
 * on its own line and on the following line (so a marker may sit on
 * the line above the code it excuses). Text after the closing
 * parenthesis (an optional `:` separator, then prose) is the
 * justification; the linter honors no allow without one.
 */
struct Suppression
{
    std::uint32_t line;
    std::vector<std::string> rules;
    std::string reason; //!< prose after the marker
};

/** Token stream plus the suppression markers found along the way. */
struct LexResult
{
    std::vector<Token> tokens;
    std::vector<Suppression> suppressions;
};

/**
 * Tokenize @p source. Never fails: unterminated constructs are closed
 * at end of input so the linter degrades gracefully on malformed
 * files.
 */
LexResult lex(std::string_view source);

} // namespace asd::lint

#endif // ASD_LINT_LEXER_HPP
