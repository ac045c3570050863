#include "lint/token_util.hpp"

#include <cctype>

namespace asd::lint
{

std::size_t
skipBalanced(const std::vector<Token> &tokens, std::size_t open_index,
             std::string_view open, std::string_view close)
{
    int depth = 0;
    for (std::size_t i = open_index; i < tokens.size(); ++i) {
        if (isPunct(tokens[i], open))
            ++depth;
        else if (isPunct(tokens[i], close) && --depth == 0)
            return i + 1;
    }
    return tokens.size();
}

std::string
quotedInclude(const Token &tok)
{
    if (tok.kind != TokenKind::Directive)
        return {};
    std::size_t i = 0;
    const std::string &text = tok.text;
    auto skipWs = [&] {
        while (i < text.size() &&
               std::isspace(static_cast<unsigned char>(text[i])))
            ++i;
    };
    if (i < text.size() && text[i] == '#')
        ++i;
    skipWs();
    if (text.compare(i, 7, "include") != 0)
        return {};
    i += 7;
    skipWs();
    if (i >= text.size() || text[i] != '"')
        return {};
    const std::size_t close = text.find('"', i + 1);
    if (close == std::string::npos)
        return {};
    return text.substr(i + 1, close - i - 1);
}

std::string
anyInclude(const Token &tok)
{
    const std::string quoted = quotedInclude(tok);
    if (!quoted.empty())
        return quoted;
    if (tok.kind != TokenKind::Directive)
        return {};
    const std::size_t open = tok.text.find('<');
    const std::size_t close = tok.text.find('>', open);
    if (tok.text.find("include") == std::string::npos ||
        open == std::string::npos || close == std::string::npos)
        return {};
    return tok.text.substr(open + 1, close - open - 1);
}

/**
 * Module layering, lowest first — the add_subdirectory order in
 * src/CMakeLists.txt. A file may include its own layer or lower.
 */
namespace
{
constexpr std::string_view kLayerOrder[] = {
    "common", "lint",  "snapshot", "trace",    "vm",
    "os",     "dram",  "cache",    "mc",       "core",
    "prefetch", "telemetry", "cpu", "workloads", "sim",
    "tuner", "runner", "arena",
};
} // namespace

int
layerRank(std::string_view module)
{
    for (std::size_t i = 0; i < std::size(kLayerOrder); ++i)
        if (kLayerOrder[i] == module)
            return static_cast<int>(i);
    return -1;
}

std::string
moduleOf(std::string_view path)
{
    if (path.rfind("src/", 0) == 0)
        path.remove_prefix(4);
    const std::size_t slash = path.find('/');
    return std::string(
        slash == std::string_view::npos ? path
                                        : path.substr(0, slash));
}

} // namespace asd::lint
