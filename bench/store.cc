#include "bench/store.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

#include <unistd.h>

#include "common/json.h"
#include "obs/http.h"

namespace tcsim::bench
{

namespace fs = std::filesystem;

bool
isValidStoreName(std::string_view name)
{
    if (name.empty() || name.size() > 512)
        return false;
    unsigned slashes = 0;
    for (const char c : name) {
        if (c == '/') {
            ++slashes;
            continue;
        }
        const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                        (c >= '0' && c <= '9') || c == '.' || c == '_' ||
                        c == '-';
        if (!ok)
            return false;
    }
    if (slashes > 1)
        return false;
    // No empty segments, no dot-only segments (".." traversal).
    std::size_t start = 0;
    while (start <= name.size()) {
        const std::size_t slash = name.find('/', start);
        const std::size_t end =
            slash == std::string_view::npos ? name.size() : slash;
        const std::string_view segment = name.substr(start, end - start);
        if (segment.empty() ||
            segment.find_first_not_of('.') == std::string_view::npos)
            return false;
        if (slash == std::string_view::npos)
            break;
        start = slash + 1;
    }
    return true;
}

// ---------------------------------------------------------------------
// LocalDirStore
// ---------------------------------------------------------------------

std::string
LocalDirStore::pathFor(const std::string &name) const
{
    return dir_ + "/" + name;
}

bool
LocalDirStore::put(const std::string &name, std::string_view bytes,
                   bool overwrite)
{
    if (!isValidStoreName(name))
        return false;
    const std::string path = pathFor(name);
    std::error_code ec;
    fs::create_directories(fs::path(path).parent_path(), ec);
    if (ec)
        return false;
    if (!overwrite && fs::exists(path, ec))
        return true; // first-wins: the racing duplicate is dropped

    // Unique temp name per process and store, then an atomic rename:
    // concurrent writers race benignly and a writer killed mid-store
    // leaves only a .tmp file that is never read back.
    static std::atomic<std::uint64_t> counter{0};
    std::string tmp = path;
    tmp += ".tmp.";
    tmp += std::to_string(::getpid());
    tmp += '.';
    tmp += std::to_string(counter.fetch_add(1));
    {
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
        if (!out) {
            fs::remove(tmp, ec);
            return false;
        }
    }
    fs::rename(tmp, path, ec);
    if (ec) {
        fs::remove(tmp, ec);
        return false;
    }
    return true;
}

std::optional<std::string>
LocalDirStore::get(const std::string &name)
{
    if (!isValidStoreName(name))
        return std::nullopt;
    std::ifstream in(pathFor(name), std::ios::binary);
    if (!in)
        return std::nullopt;
    std::ostringstream bytes;
    bytes << in.rdbuf();
    if (in.bad())
        return std::nullopt;
    return std::move(bytes).str();
}

bool
LocalDirStore::exists(const std::string &name)
{
    if (!isValidStoreName(name))
        return false;
    std::error_code ec;
    return fs::is_regular_file(pathFor(name), ec);
}

bool
LocalDirStore::remove(const std::string &name)
{
    if (!isValidStoreName(name))
        return false;
    std::error_code ec;
    fs::remove(pathFor(name), ec);
    return !fs::exists(pathFor(name), ec);
}

std::vector<StoreObject>
LocalDirStore::list(const std::string &prefix)
{
    std::vector<StoreObject> objects;
    // The prefix's directory part picks the scan root; in-flight .tmp
    // files are invisible (their names never validate).
    const std::size_t slash = prefix.find('/');
    const std::string subdir =
        slash == std::string::npos ? "" : prefix.substr(0, slash);
    const std::string root = subdir.empty() ? dir_ : dir_ + "/" + subdir;

    const auto now_fs = fs::file_time_type::clock::now();
    std::error_code ec;
    for (fs::directory_iterator it(root, ec), end; !ec && it != end;
         it.increment(ec)) {
        if (!it->is_regular_file(ec))
            continue;
        std::string name = it->path().filename().string();
        if (!subdir.empty())
            name = subdir + "/" + name;
        if (!isValidStoreName(name) || name.rfind(prefix, 0) != 0)
            continue;
        StoreObject object;
        object.name = std::move(name);
        object.size = static_cast<std::uint64_t>(it->file_size(ec));
        const auto mtime = fs::last_write_time(it->path(), ec);
        if (!ec) {
            object.ageSeconds = std::max(
                0.0,
                std::chrono::duration<double>(now_fs - mtime).count());
        }
        objects.push_back(std::move(object));
    }
    std::sort(objects.begin(), objects.end(),
              [](const StoreObject &a, const StoreObject &b) {
                  return a.name < b.name;
              });
    return objects;
}

// ---------------------------------------------------------------------
// HttpStore
// ---------------------------------------------------------------------

std::string
HttpStore::describe() const
{
    return "http://" + host_ + ":" + std::to_string(port_);
}

bool
HttpStore::put(const std::string &name, std::string_view bytes,
               bool overwrite)
{
    if (!isValidStoreName(name))
        return false;
    std::string path = "/obj/" + name;
    if (overwrite)
        path += "?overwrite=1";
    const auto result =
        obs::httpRequest(host_, port_, "PUT", path, token_, bytes);
    return result && (result->status == 200 || result->status == 201);
}

std::optional<std::string>
HttpStore::get(const std::string &name)
{
    if (!isValidStoreName(name))
        return std::nullopt;
    const auto result =
        obs::httpRequest(host_, port_, "GET", "/obj/" + name, token_);
    if (!result || result->status != 200)
        return std::nullopt;
    return result->body;
}

bool
HttpStore::exists(const std::string &name)
{
    if (!isValidStoreName(name))
        return false;
    const auto result =
        obs::httpRequest(host_, port_, "HEAD", "/obj/" + name, token_);
    return result && result->status == 200;
}

bool
HttpStore::remove(const std::string &name)
{
    if (!isValidStoreName(name))
        return false;
    const auto result =
        obs::httpRequest(host_, port_, "DELETE", "/obj/" + name, token_);
    return result && (result->status == 200 || result->status == 404);
}

std::vector<StoreObject>
HttpStore::list(const std::string &prefix)
{
    std::vector<StoreObject> objects;
    const auto result = obs::httpRequest(
        host_, port_, "GET", "/manifest?prefix=" + prefix, token_);
    if (!result || result->status != 200)
        return objects;
    const std::optional<json::Value> doc = json::parse(result->body);
    if (!doc || !doc->isObject() ||
        doc->getString("schema") != "tcsim-store-manifest-v1") {
        return objects;
    }
    const json::Value *rows = doc->find("objects");
    if (rows == nullptr || !rows->isArray())
        return objects;
    for (const json::Value &row : rows->items()) {
        if (!row.isObject())
            continue;
        StoreObject object;
        object.name = row.getString("name");
        object.size = row.getUint64("size");
        object.ageSeconds = row.getDouble("age_seconds");
        if (isValidStoreName(object.name))
            objects.push_back(std::move(object));
    }
    std::sort(objects.begin(), objects.end(),
              [](const StoreObject &a, const StoreObject &b) {
                  return a.name < b.name;
              });
    return objects;
}

// ---------------------------------------------------------------------
// openStore
// ---------------------------------------------------------------------

std::string
farmToken()
{
    const char *value = std::getenv("TCSIM_FARM_TOKEN");
    return value != nullptr ? value : "";
}

std::unique_ptr<FragmentStore>
openStore(const std::string &spec)
{
    if (spec.rfind("http://", 0) == 0) {
        std::string host;
        std::uint16_t port = 0;
        if (!obs::parseHttpUrl(spec, host, port)) {
            std::fprintf(stderr,
                         "store: malformed spec '%s' (want "
                         "http://host:port)\n",
                         spec.c_str());
            return nullptr;
        }
        const std::string token = farmToken();
        if (token.empty()) {
            std::fprintf(stderr,
                         "store: %s needs a bearer token (set "
                         "TCSIM_FARM_TOKEN)\n",
                         spec.c_str());
            return nullptr;
        }
        return std::make_unique<HttpStore>(host, port, token);
    }
    if (spec.empty()) {
        std::fprintf(stderr, "store: empty spec\n");
        return nullptr;
    }
    return std::make_unique<LocalDirStore>(spec);
}

} // namespace tcsim::bench
