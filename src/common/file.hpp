#ifndef ASD_COMMON_FILE_HPP
#define ASD_COMMON_FILE_HPP

/**
 * @file
 * Writing a text artifact (telemetry and tuner exports) to a path.
 */

#include <string>

namespace asd
{

/**
 * Write @p text to @p path, creating missing parent directories.
 * On failure warns, naming @p what (e.g. "telemetry CSV") and the
 * path, and returns false; never stops the simulation.
 */
bool saveString(const std::string &text, const std::string &path,
                const char *what);

} // namespace asd

#endif // ASD_COMMON_FILE_HPP
