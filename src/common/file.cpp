#include "common/file.hpp"

#include <filesystem>
#include <fstream>
#include <system_error>

#include "common/log.hpp"

namespace asd
{

bool
saveString(const std::string &text, const std::string &path,
           const char *what)
{
    std::error_code ec;
    const auto parent = std::filesystem::path(path).parent_path();
    if (!parent.empty())
        std::filesystem::create_directories(parent, ec);
    std::ofstream out(path);
    if (!out) {
        warn("cannot open " + std::string(what) + " file: " + path);
        return false;
    }
    out << text;
    out.flush();
    if (!out) {
        warn("write failed for " + std::string(what) + " file: " + path);
        return false;
    }
    return true;
}

} // namespace asd
