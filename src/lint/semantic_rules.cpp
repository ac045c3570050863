#include "lint/semantic_rules.hpp"

#include <algorithm>
#include <map>
#include <set>
#include <string_view>

#include "lint/token_util.hpp"

namespace asd::lint
{

namespace
{

// --- snapshot-field-coverage ---------------------------------------

/**
 * Members the snapshot contract exempts by design: configuration is
 * re-derived when a System is rebuilt (never saved), so const,
 * reference, raw-pointer, *Config-typed, and callback members stay
 * out of snapshot().
 */
bool
isSnapshotExempt(const MemberDecl &member)
{
    return member.is_static || member.is_const ||
           member.is_reference || member.is_pointer ||
           member.typeMentions("Config") ||
           member.typeMentions("function");
}

void
checkSnapshotFieldCoverage(const DeclIndex &index,
                           std::vector<Diagnostic> &out)
{
    for (const ClassDecl *cls : index.derivedFrom("Snapshottable")) {
        // A class without its own snapshot() snapshots none of its
        // members, so forgetting the method is flagged member by
        // member like forgetting one field.
        const MethodDecl *snapshot = cls->findMethod("snapshot");
        if (snapshot && !snapshot->has_body)
            continue; // the body was not found
        if (snapshot && snapshot->body.empty())
            continue; // explicit opt-out: a deliberately empty
                      // snapshot() (bench taps, test doubles)
                      // declares "never checkpointed"
        const std::set<std::string> covered =
            cls->referencedFrom("snapshot");
        for (const MemberDecl &member : cls->members) {
            if (isSnapshotExempt(member) || covered.count(member.name))
                continue;
            out.push_back(
                {cls->file, member.line, "snapshot-field-coverage",
                 Severity::Error,
                 "data member '" + member.name +
                     "' of snapshottable '" + cls->name +
                     "' is never snapshotted; name it in snapshot() "
                     "or mark it asdlint:allow(snapshot-field-coverage) "
                     "with a reason",
                 cls->name + "::" + member.name});
        }
    }
}

// --- wall-clock-and-env --------------------------------------------

/** Layers whose results must be a pure function of config + seed. */
constexpr std::string_view kDeterministicLayers[] = {
    "sim", "core", "prefetch", "tuner", "arena",
};

constexpr std::string_view kForbiddenIdents[] = {
    "steady_clock",  "system_clock", "high_resolution_clock",
    "gettimeofday",  "clock_gettime", "timespec_get",
    "getenv",        "secure_getenv", "putenv",
    "setenv",        "localtime",     "gmtime",
    "strftime",      "mktime",
};

/** `time(` / `clock(` in call position, not a member call. */
bool
isClockCall(const std::vector<Token> &toks, std::size_t i)
{
    if (!isIdent(toks[i], "time") && !isIdent(toks[i], "clock"))
        return false;
    if (i + 1 >= toks.size() || !isPunct(toks[i + 1], "("))
        return false;
    return i == 0 ||
           (!isPunct(toks[i - 1], ".") && !isPunct(toks[i - 1], "->"));
}

void
checkWallClockAndEnv(const DeclIndex &index,
                     std::vector<Diagnostic> &out)
{
    for (const IndexedFile &file : index.files) {
        if (file.path.rfind("src/", 0) != 0)
            continue;
        const std::string module = moduleOf(file.path);
        const bool deterministic =
            std::find(std::begin(kDeterministicLayers),
                      std::end(kDeterministicLayers),
                      module) != std::end(kDeterministicLayers);
        if (!deterministic)
            continue;
        const std::vector<Token> &toks = file.tokens;
        for (std::size_t i = 0; i < toks.size(); ++i) {
            if (toks[i].kind != TokenKind::Identifier)
                continue;
            const bool forbidden =
                std::find(std::begin(kForbiddenIdents),
                          std::end(kForbiddenIdents),
                          toks[i].text) !=
                    std::end(kForbiddenIdents) ||
                isClockCall(toks, i);
            if (!forbidden)
                continue;
            out.push_back(
                {file.path, toks[i].line, "wall-clock-and-env",
                 Severity::Error,
                 "'" + toks[i].text +
                     "' reads the wall clock or environment inside "
                     "the deterministic '" + module +
                     "' layer; results must be a pure function of "
                     "configuration and seed",
                 toks[i].text});
        }
    }
}

// --- unordered-iteration (flow-aware) ------------------------------

constexpr std::string_view kUnorderedTypes[] = {
    "unordered_map",
    "unordered_set",
    "unordered_multimap",
    "unordered_multiset",
};

constexpr std::string_view kEmittingIdents[] = {
    "cout",     "cerr",       "printf", "fprintf",
    "ofstream", "JsonWriter", "Table",  "ostream",
};

/** One body-carrying function or method of a translation unit. */
struct TuFunction
{
    std::string name;
    const std::vector<Token> *body = nullptr;
    const ClassDecl *cls = nullptr; // methods only
};

bool
emitsDirectly(const std::vector<Token> &body)
{
    for (const Token &tok : body) {
        if (tok.kind != TokenKind::Identifier)
            continue;
        for (const std::string_view e : kEmittingIdents)
            if (tok.text == e)
                return true;
    }
    return false;
}

/** Names declared in @p toks with an unordered container type. */
void
collectContainerNames(const std::vector<Token> &toks,
                      std::set<std::string> &containers)
{
    for (std::size_t i = 0; i < toks.size(); ++i) {
        const bool is_unordered = std::any_of(
            std::begin(kUnorderedTypes), std::end(kUnorderedTypes),
            [&](std::string_view t) { return isIdent(toks[i], t); });
        if (!is_unordered || i + 1 >= toks.size() ||
            !isPunct(toks[i + 1], "<"))
            continue;
        std::size_t after = i + 1;
        int depth = 0;
        for (; after < toks.size(); ++after) {
            if (isPunct(toks[after], "<"))
                ++depth;
            else if (isPunct(toks[after], ">") && --depth == 0) {
                ++after;
                break;
            } else if (isPunct(toks[after], ">>")) {
                depth -= 2;
                if (depth <= 0) {
                    ++after;
                    break;
                }
            }
        }
        while (after < toks.size() &&
               (isPunct(toks[after], "&") ||
                isPunct(toks[after], "*")))
            ++after;
        if (after < toks.size() &&
            toks[after].kind == TokenKind::Identifier)
            containers.insert(toks[after].text);
    }
}

/** Report iterations over @p containers inside @p body. */
void
diagnoseIterations(const std::vector<Token> &toks,
                   const std::set<std::string> &containers,
                   const std::string &path,
                   const std::string &function,
                   std::vector<Diagnostic> &out)
{
    auto isContainer = [&](const Token &tok) {
        return tok.kind == TokenKind::Identifier &&
               containers.count(tok.text) != 0;
    };
    auto diagnose = [&](std::uint32_t line, const std::string &name) {
        out.push_back(
            {path, line, "unordered-iteration", Severity::Error,
             "iterating unordered container '" + name + "' in '" +
                 function +
                 "', which reaches an output-emitting sink; hash "
                 "order is not deterministic — copy to a sorted "
                 "container first",
             function});
    };

    // Range-for whose range expression names a container.
    for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
        if (!isIdent(toks[i], "for") || !isPunct(toks[i + 1], "("))
            continue;
        const std::size_t end = skipBalanced(toks, i + 1, "(", ")");
        // Find the range-for ':' at depth 1 (a ';' first means the
        // classic three-clause form; a '?' first starts a ternary).
        int depth = 0;
        int pending_ternary = 0;
        std::size_t colon = 0;
        for (std::size_t j = i + 1; j < end && colon == 0; ++j) {
            if (isPunct(toks[j], "("))
                ++depth;
            else if (isPunct(toks[j], ")"))
                --depth;
            else if (depth == 1 && isPunct(toks[j], ";"))
                break;
            else if (depth == 1 && isPunct(toks[j], "?"))
                ++pending_ternary;
            else if (depth == 1 && isPunct(toks[j], ":")) {
                if (pending_ternary > 0)
                    --pending_ternary;
                else
                    colon = j;
            }
        }
        if (colon == 0)
            continue;
        for (std::size_t j = colon + 1; j + 1 < end; ++j) {
            if (isContainer(toks[j])) {
                diagnose(toks[i].line, toks[j].text);
                break;
            }
        }
    }

    // Explicit iterator walks (name.begin() and friends).
    constexpr std::string_view kBeginNames[] = {"begin", "cbegin",
                                                "rbegin", "crbegin"};
    for (std::size_t i = 0; i + 2 < toks.size(); ++i) {
        if (isContainer(toks[i]) && isPunct(toks[i + 1], ".") &&
            std::any_of(std::begin(kBeginNames),
                        std::end(kBeginNames),
                        [&](std::string_view b) {
                            return isIdent(toks[i + 2], b);
                        }))
            diagnose(toks[i].line, toks[i].text);
    }
}

void
checkUnorderedIteration(const DeclIndex &index,
                        std::vector<Diagnostic> &out)
{
    for (const IndexedFile &file : index.files) {
        // Bodies defined in this TU, by (unqualified) name.
        std::vector<TuFunction> funcs;
        for (const FunctionDecl &fn : index.functions)
            if (fn.file == file.path)
                funcs.push_back({fn.name, &fn.body, nullptr});
        for (const ClassDecl &cls : index.classes)
            for (const MethodDecl &m : cls.methods)
                if (m.has_body && m.file == file.path)
                    funcs.push_back({m.name, &m.body, &cls});
        if (funcs.empty())
            continue;

        // Emitters: direct sinks, their (transitive) callers, and
        // everything those call — iteration anywhere along such a
        // chain feeds ordering-sensitive output.
        std::set<std::string> connected;
        for (const TuFunction &f : funcs) {
            const bool param_sink =
                !f.cls &&
                [&] {
                    for (const FunctionDecl &fn : index.functions)
                        if (&fn.body == f.body)
                            return fn.paramsMention("ostream") ||
                                   fn.paramsMention("JsonWriter") ||
                                   fn.paramsMention("Table");
                    return false;
                }();
            if (emitsDirectly(*f.body) || param_sink)
                connected.insert(f.name);
        }
        bool changed = true;
        while (changed) {
            changed = false;
            for (const TuFunction &f : funcs) {
                if (connected.count(f.name))
                    continue;
                for (const std::string &callee :
                     calledNames(*f.body)) {
                    if (connected.count(callee)) {
                        connected.insert(f.name);
                        changed = true;
                        break;
                    }
                }
            }
            for (const TuFunction &f : funcs) {
                if (!connected.count(f.name))
                    continue;
                for (const std::string &callee :
                     calledNames(*f.body)) {
                    bool local = false;
                    for (const TuFunction &g : funcs)
                        if (g.name == callee)
                            local = true;
                    if (local && !connected.count(callee)) {
                        connected.insert(callee);
                        changed = true;
                    }
                }
            }
        }
        if (connected.empty())
            continue;

        std::set<std::string> file_containers;
        collectContainerNames(file.tokens, file_containers);
        for (const TuFunction &f : funcs) {
            if (!connected.count(f.name))
                continue;
            std::set<std::string> containers = file_containers;
            if (f.cls)
                for (const MemberDecl &m : f.cls->members)
                    if (m.typeMentions("unordered_"))
                        containers.insert(m.name);
            if (containers.empty())
                continue;
            const std::string label =
                f.cls ? f.cls->name + "::" + f.name : f.name;
            diagnoseIterations(*f.body, containers, file.path, label,
                               out);
        }
    }
}

// --- allow-missing-reason ------------------------------------------

void
checkAllowMissingReason(const DeclIndex &index,
                        std::vector<Diagnostic> &out)
{
    for (const IndexedFile &file : index.files) {
        for (const Suppression &sup : file.suppressions) {
            if (!sup.reason.empty())
                continue;
            std::string rules;
            for (const std::string &rule : sup.rules)
                rules += (rules.empty() ? "" : ",") + rule;
            out.push_back({file.path, sup.line, "allow-missing-reason",
                           Severity::Error,
                           "asdlint:allow(" + rules +
                               ") needs a justification — add ': why' "
                               "after the closing parenthesis; without "
                               "one the suppression is inert",
                           sup.rules.front()});
        }
    }
}

} // namespace

const std::vector<SemanticRule> &
semanticRuleRegistry()
{
    static const std::vector<SemanticRule> rules = {
        {"allow-missing-reason", Severity::Error,
         "suppressions must carry a justification",
         checkAllowMissingReason},
        {"snapshot-field-coverage", Severity::Error,
         "Snapshottable members must be named in snapshot()",
         checkSnapshotFieldCoverage},
        {"unordered-iteration", Severity::Error,
         "no unordered-container iteration reaching emitting sinks",
         checkUnorderedIteration},
        {"wall-clock-and-env", Severity::Error,
         "no wall-clock or environment reads in deterministic "
         "layers",
         checkWallClockAndEnv},
    };
    return rules;
}

} // namespace asd::lint
