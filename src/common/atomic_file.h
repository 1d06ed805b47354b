/**
 * @file
 * Atomic whole-file writes: the one way tcsim's tools and the
 * fragment store put a document or object on disk.
 *
 * The bytes go to a temp file beside the target, named uniquely per
 * process and call ("<path>.tmp~<pid>.<n>"), and are renamed over the
 * target.
 * A reader therefore sees the old file or the new one, never a torn
 * one; two processes writing the same target cannot rename each
 * other's half-written temp; and a writer killed mid-write leaves
 * only a temp file that nothing reads back.
 */

#ifndef TCSIM_COMMON_ATOMIC_FILE_H
#define TCSIM_COMMON_ATOMIC_FILE_H

#include <string>
#include <string_view>

namespace tcsim
{

/**
 * Replace @p path with @p bytes atomically; "-" writes to stdout.
 * @return false on I/O failure (the temp file is removed, the target
 * is untouched).
 */
bool writeFileAtomic(const std::string &path, std::string_view bytes);

} // namespace tcsim

#endif // TCSIM_COMMON_ATOMIC_FILE_H
