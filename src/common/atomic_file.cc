#include "common/atomic_file.h"

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <fstream>

#include <unistd.h>

namespace tcsim
{

bool
writeFileAtomic(const std::string &path, std::string_view bytes)
{
    if (path == "-") {
        return std::fwrite(bytes.data(), 1, bytes.size(), stdout) ==
               bytes.size();
    }
    // '~' keeps temp names out of the fragment store's name charset,
    // so its list() never reports an in-flight write.
    static std::atomic<std::uint64_t> counter{0};
    std::string tmp = path;
    tmp += ".tmp~";
    tmp += std::to_string(::getpid());
    tmp += '.';
    tmp += std::to_string(counter.fetch_add(1));
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    out.close(); // flush now, so a failed flush is caught below
    if (!out || std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::remove(tmp.c_str());
        return false;
    }
    return true;
}

} // namespace tcsim
