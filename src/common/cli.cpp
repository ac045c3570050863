#include "common/cli.hpp"

#include <cstdlib>
#include <iostream>
#include <sstream>

#include "common/log.hpp"

namespace asd
{

CliError
splitList(std::string_view text, std::vector<std::string> &out)
{
    out.clear();
    std::size_t start = 0;
    for (std::size_t comma = 0; comma != std::string_view::npos;
         start = comma + 1) {
        comma = text.find(',', start);
        out.emplace_back(text.substr(start, comma - start));
        if (out.back().empty())
            return "empty item in list '" + std::string(text) + "'";
    }
    return std::nullopt;
}

std::string
cliUsage(std::string_view header, const std::vector<CliFlag> &flags)
{
    // Help text starts in column 25 and wraps before column 79.
    const std::string indent(25, ' ');
    std::string out(header);
    for (const CliFlag &flag : flags) {
        std::string line = "  " + flag.name;
        if (!flag.metavar.empty())
            line += " " + flag.metavar;
        line = line.size() < indent.size()
                   ? line + indent.substr(line.size())
                   : line + "\n" + indent;
        std::istringstream words(flag.help);
        std::size_t column = indent.size();
        for (std::string word; words >> word; column += word.size()) {
            if (column > indent.size() && column + word.size() >= 78) {
                line += "\n" + indent;
                column = indent.size();
            } else if (column > indent.size()) {
                line += ' ';
                ++column;
            }
            line += word;
        }
        out += line + "\n";
    }
    return out;
}

CliError
applyCliArgs(const std::vector<std::string> &args,
             const std::vector<CliFlag> &flags, std::string_view header)
{
    for (std::size_t i = 0; i < args.size(); ++i) {
        const std::string &arg = args[i];
        if (arg == "--help" || arg == "-h") {
            std::cout << cliUsage(header, flags);
            std::exit(0);
        }
        const CliFlag *flag = nullptr;
        for (const CliFlag &candidate : flags)
            flag = candidate.name == arg ? &candidate : flag;
        if (!flag)
            return "unknown argument: " + arg + " (try --help)";
        if (!flag->metavar.empty() && ++i >= args.size())
            return "missing value after " + arg;
        const std::string value = flag->metavar.empty() ? "" : args[i];
        if (!flag->metavar.empty() && value.empty())
            return "empty value for " + arg;
        if (CliError error = flag->apply(value))
            return "invalid " + arg + ": " + *error;
    }
    return std::nullopt;
}

void
parseCliOrDie(int argc, char **argv, const std::vector<CliFlag> &flags,
              std::string_view header)
{
    if (const CliError error = applyCliArgs(
            std::vector<std::string>(argv + 1, argv + argc), flags, header))
        fatal(*error);
}

CliFlag
switchFlag(std::string name, std::string help, bool &target)
{
    return {std::move(name), "", std::move(help),
            [&target](const std::string &) {
                target = true;
                return std::nullopt;
            }};
}

CliFlag
textFlag(std::string name, std::string metavar, std::string help,
         std::string &target)
{
    return {std::move(name), std::move(metavar), std::move(help),
            [&target](const std::string &value) {
                target = value;
                return std::nullopt;
            }};
}

} // namespace asd
