#include "lint/rules.hpp"

#include <algorithm>
#include <array>
#include <cctype>
#include <string_view>

#include "lint/token_util.hpp"

namespace asd::lint
{

namespace
{

std::string
toLower(std::string_view text)
{
    std::string out(text);
    std::transform(out.begin(), out.end(), out.begin(), [](char c) {
        return static_cast<char>(
            std::tolower(static_cast<unsigned char>(c)));
    });
    return out;
}

bool
containsNoCase(std::string_view haystack, std::string_view needle)
{
    return toLower(haystack).find(toLower(needle)) != std::string::npos;
}

// --- float-in-cost-path --------------------------------------------

/**
 * Files where floating-point arithmetic broke determinism before (the
 * AHB tie-break bug) or would: scheduler cost functions and DRAM bank
 * timing. The energy model (dram/power, dram_config energy fields)
 * and the paper's SLH probability math stay on double by design.
 */
constexpr std::string_view kCostPathFiles[] = {
    "src/mc/scheduler.hpp",
    "src/mc/scheduler.cpp",
    "src/core/adaptive_scheduler.hpp",
    "src/core/adaptive_scheduler.cpp",
    "src/dram/dram.hpp",
    "src/dram/dram.cpp",
};

void
checkFloatInCostPath(const SourceFile &file,
                     std::vector<Diagnostic> &out)
{
    const bool covered =
        std::find(std::begin(kCostPathFiles), std::end(kCostPathFiles),
                  file.path) != std::end(kCostPathFiles);
    if (!covered)
        return;
    for (const Token &tok : file.tokens) {
        if (isIdent(tok, "float") || isIdent(tok, "double")) {
            out.push_back(
                {file.path, tok.line, "float-in-cost-path",
                 Severity::Error,
                 "'" + tok.text +
                     "' in a scheduler/DRAM-timing cost path; use "
                     "integer fixed-point (1/8-cycle units) so ties "
                     "compare exactly",
                 {}});
        }
    }
}

// --- raw-random ----------------------------------------------------

constexpr std::string_view kRawRandomNames[] = {
    "rand",          "srand",      "rand_r",
    "drand48",       "lrand48",    "random_device",
    "mt19937",       "mt19937_64", "minstd_rand",
    "minstd_rand0",  "knuth_b",    "default_random_engine",
};

void
checkRawRandom(const SourceFile &file, std::vector<Diagnostic> &out)
{
    if (file.path.rfind("src/common/random", 0) == 0)
        return;
    for (const Token &tok : file.tokens) {
        if (tok.kind != TokenKind::Identifier)
            continue;
        for (const std::string_view name : kRawRandomNames) {
            if (tok.text == name) {
                out.push_back(
                    {file.path, tok.line, "raw-random",
                     Severity::Error,
                     "'" + tok.text +
                         "' is not reproducible across platforms; "
                         "use asd::Rng from common/random",
                 {}});
                break;
            }
        }
    }
}

// --- narrowing-cast ------------------------------------------------

constexpr std::string_view kNarrowTargets[] = {
    "int8_t",  "int16_t",  "int32_t", "uint8_t",
    "uint16_t", "uint32_t", "short",
};

constexpr std::string_view kWideValueHints[] = {
    "addr", "line", "cycle", "page", "frame", "row",
};

bool
isNarrowTargetType(const std::vector<Token> &toks, std::size_t begin,
                   std::size_t end)
{
    bool narrow = false;
    for (std::size_t i = begin; i < end; ++i) {
        const Token &tok = toks[i];
        if (tok.kind != TokenKind::Identifier)
            continue;
        if (tok.text == "double" || tok.text == "float" ||
            tok.text.find("64") != std::string::npos ||
            tok.text == "size_t" || tok.text == "long")
            return false;
        if (std::find(std::begin(kNarrowTargets),
                      std::end(kNarrowTargets),
                      tok.text) != std::end(kNarrowTargets) ||
            tok.text == "int" || tok.text == "unsigned")
            narrow = true;
    }
    return narrow;
}

void
checkNarrowingCast(const SourceFile &file,
                   std::vector<Diagnostic> &out)
{
    const std::vector<Token> &toks = file.tokens;
    for (std::size_t i = 0; i + 2 < toks.size(); ++i) {
        if (!isIdent(toks[i], "static_cast") ||
            !isPunct(toks[i + 1], "<"))
            continue;
        const std::size_t type_end = skipBalanced(toks, i + 1, "<", ">");
        if (type_end >= toks.size() ||
            !isPunct(toks[type_end], "("))
            continue;
        const std::size_t args_end =
            skipBalanced(toks, type_end, "(", ")");
        if (!isNarrowTargetType(toks, i + 2, type_end - 1))
            continue;
        for (std::size_t j = type_end + 1; j + 1 < args_end; ++j) {
            if (toks[j].kind != TokenKind::Identifier)
                continue;
            const bool wide_hint = std::any_of(
                std::begin(kWideValueHints), std::end(kWideValueHints),
                [&](std::string_view h) {
                    return containsNoCase(toks[j].text, h);
                });
            if (wide_hint) {
                out.push_back(
                    {file.path, toks[i].line, "narrowing-cast",
                     Severity::Warning,
                     "static_cast narrows '" + toks[j].text +
                         "' to a sub-64-bit integer; use "
                         "asd::narrow<T>() so truncation panics "
                         "instead of wrapping",
                 {}});
                break;
            }
        }
    }
}

// --- layer-include -------------------------------------------------

void
checkLayerInclude(const SourceFile &file,
                  std::vector<Diagnostic> &out)
{
    if (file.path.rfind("src/", 0) != 0)
        return; // benches/tests/examples may include anything
    const int own_rank = layerRank(moduleOf(file.path));
    if (own_rank < 0)
        return;
    for (const Token &tok : file.tokens) {
        const std::string inc = quotedInclude(tok);
        if (inc.empty())
            continue;
        const int inc_rank = layerRank(moduleOf(inc));
        if (inc_rank > own_rank) {
            out.push_back(
                {file.path, tok.line, "layer-include", Severity::Error,
                 "include of \"" + inc + "\" points up the layering (" +
                     moduleOf(file.path) + " -> " + moduleOf(inc) +
                     "); invert the dependency or move the shared "
                     "piece down",
                 {}});
        }
    }
}

// --- check-side-effect ---------------------------------------------

constexpr std::string_view kCheckCallNames[] = {
    "checkThat",
    "panicIfNot",
    "ASD_CHECK",
    "assert",
};

constexpr std::string_view kMutatingOps[] = {
    "++", "--", "=",  "+=", "-=",  "*=",  "/=",
    "%=", "&=", "|=", "^=", "<<=", ">>=",
};

void
checkCheckSideEffect(const SourceFile &file,
                     std::vector<Diagnostic> &out)
{
    const std::vector<Token> &toks = file.tokens;
    for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
        const bool is_check = std::any_of(
            std::begin(kCheckCallNames), std::end(kCheckCallNames),
            [&](std::string_view n) { return isIdent(toks[i], n); });
        if (!is_check || !isPunct(toks[i + 1], "("))
            continue;
        const std::size_t end = skipBalanced(toks, i + 1, "(", ")");
        for (std::size_t j = i + 2; j + 1 < end; ++j) {
            const bool mutating =
                toks[j].kind == TokenKind::Punct &&
                std::find(std::begin(kMutatingOps),
                          std::end(kMutatingOps),
                          toks[j].text) != std::end(kMutatingOps);
            if (mutating) {
                out.push_back(
                    {file.path, toks[j].line, "check-side-effect",
                     Severity::Error,
                     "'" + toks[j].text + "' inside " + toks[i].text +
                         "(...) mutates state; invariant checks must "
                         "be side-effect free (they vanish when "
                         "checks are off)",
                 {}});
                break;
            }
        }
        i = end > i ? end - 1 : i;
    }
}

} // namespace

const std::vector<Rule> &
ruleRegistry()
{
    static const std::vector<Rule> rules = {
        {"check-side-effect", Severity::Error,
         "no mutation inside checkThat/panicIfNot/assert arguments",
         checkCheckSideEffect},
        {"float-in-cost-path", Severity::Error,
         "no float/double in scheduler or DRAM-timing cost paths",
         checkFloatInCostPath},
        {"layer-include", Severity::Error,
         "includes must not point up the src/ module layering",
         checkLayerInclude},
        {"narrowing-cast", Severity::Warning,
         "cycle/address values need asd::narrow<T>(), not static_cast",
         checkNarrowingCast},
        {"raw-random", Severity::Error,
         "randomness outside common/random is not reproducible",
         checkRawRandom},
    };
    return rules;
}

} // namespace asd::lint
