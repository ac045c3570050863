#ifndef ASD_LINT_DECL_INDEX_HPP
#define ASD_LINT_DECL_INDEX_HPP

/**
 * @file
 * Pass 1 of asdlint v2: a cross-translation-unit declaration index
 * built on the lexer. It is deliberately not a full C++ parser — a
 * recursive token-stream walk recovers exactly what the semantic
 * rules need:
 *
 *   - per-class non-static data-member inventories (name, line,
 *     type tokens, const/static/reference/pointer flags),
 *   - per-method token bodies, both in-class definitions and
 *     out-of-line `Class::method(...) { ... }` definitions bound
 *     back to their class across files,
 *   - free functions with bodies (writeJson, makeJobId, ...),
 *   - base-class lists (so `Snapshottable` subclasses are found
 *     transitively),
 *   - the quoted-include graph.
 *
 * Unrecognized constructs are skipped, never fatal: the index
 * degrades to "less coverage", not "crash on weird code".
 */

#include <cstdint>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "lint/lexer.hpp"

namespace asd::lint
{

/** One non-static data member of an indexed class. */
struct MemberDecl
{
    std::string name;
    std::uint32_t line = 0;

    /** Declaration tokens before the declarator name. */
    std::vector<std::string> type_tokens;

    bool is_static = false;    //!< static / constexpr
    bool is_const = false;     //!< const-qualified
    bool is_reference = false; //!< declared with &
    bool is_pointer = false;   //!< declared with * (raw pointer)

    /** True when any type token mentions @p text. */
    bool typeMentions(std::string_view text) const;
};

/** One method; the body may live in another file than the class. */
struct MethodDecl
{
    std::string name;
    std::string file; //!< file holding the definition (or decl)
    std::uint32_t line = 0;
    bool has_body = false;
    std::vector<Token> body; //!< tokens between the body braces
};

/** One class or struct, possibly nested. */
struct ClassDecl
{
    std::string name;      //!< unqualified
    std::string qualified; //!< Outer::Inner (namespaces omitted)
    std::string file;
    std::uint32_t line = 0;
    bool is_struct = false;

    /** Last pre-template identifier of each base specifier. */
    std::vector<std::string> bases;

    std::vector<MemberDecl> members;
    std::vector<MethodDecl> methods;

    const MethodDecl *findMethod(std::string_view name) const;

    /**
     * Every identifier referenced from @p method's body, including —
     * transitively — the bodies of same-class methods it calls. The
     * coverage rules use this so `snapshot` may delegate to private
     * helpers without losing credit for the members they touch.
     */
    std::set<std::string> referencedFrom(std::string_view method) const;
};

/** One namespace-scope function with a body. */
struct FunctionDecl
{
    std::string name; //!< unqualified
    std::string file;
    std::uint32_t line = 0;

    /** Token texts of the parameter list (parens excluded). */
    std::vector<std::string> param_tokens;

    std::vector<Token> body;

    /** True when any parameter token mentions @p text. */
    bool paramsMention(std::string_view text) const;
};

/** One lexed file as fed to the indexer. */
struct IndexedFile
{
    std::string path; //!< repo-relative, forward slashes
    std::vector<Token> tokens;
    std::vector<Suppression> suppressions;
    std::vector<std::string> includes; //!< quoted includes (filled in)
};

/** The cross-TU declaration index (pass 1 output). */
class DeclIndex
{
  public:
    std::vector<IndexedFile> files;
    std::vector<ClassDecl> classes;
    std::vector<FunctionDecl> functions;

    /**
     * Look up a class by unqualified or Outer::Inner-qualified name;
     * nullptr when absent. Unqualified lookups prefer an exact
     * unqualified match, then a qualified-suffix match.
     */
    const ClassDecl *findClass(std::string_view name) const;

    /** Classes deriving from @p base, directly or transitively. */
    std::vector<const ClassDecl *>
    derivedFrom(std::string_view base) const;

    /** Every body-carrying function named @p name. */
    std::vector<const FunctionDecl *>
    findFunctions(std::string_view name) const;

    const IndexedFile *findFile(std::string_view path) const;
};

/**
 * Build the index over @p files (ownership taken). Two sub-passes:
 * declarations first, then out-of-line method bodies are bound to
 * their classes — so a .cpp may be indexed before its header.
 */
DeclIndex buildDeclIndex(std::vector<IndexedFile> files);

/** Identifier texts appearing in @p tokens. */
std::set<std::string> identifiersIn(const std::vector<Token> &tokens);

/**
 * Names that appear in call position (identifier directly followed
 * by '(') inside @p tokens.
 */
std::set<std::string> calledNames(const std::vector<Token> &tokens);

} // namespace asd::lint

#endif // ASD_LINT_DECL_INDEX_HPP
