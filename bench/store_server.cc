#include "bench/store_server.h"

#include <cstdio>

namespace tcsim::bench
{

namespace
{

std::string
jsonEscape(const std::string &text)
{
    std::string out;
    out.reserve(text.size());
    for (const char c : text) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x",
                          static_cast<unsigned>(c));
            out += buf;
        } else {
            out += c;
        }
    }
    return out;
}

std::string
formatDouble(double value)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    return buf;
}

obs::HttpResponse
jsonError(int status, const char *what)
{
    obs::HttpResponse resp;
    resp.status = status;
    resp.body = std::string("{\"error\": \"") + what + "\"}\n";
    return resp;
}

} // namespace

bool
StoreServer::routes(const obs::HttpRequest &request)
{
    return request.path.rfind("/obj/", 0) == 0 ||
           request.path == "/manifest";
}

std::string
StoreServer::renderManifest(const std::string &prefix)
{
    const std::vector<StoreObject> objects = backing_.list(prefix);
    std::string out = "{\n";
    out += "  \"schema\": \"tcsim-store-manifest-v1\",\n";
    out += "  \"store\": \"" + jsonEscape(backing_.describe()) + "\",\n";
    out += "  \"prefix\": \"" + jsonEscape(prefix) + "\",\n";
    out += "  \"objects\": [\n";
    for (std::size_t i = 0; i < objects.size(); ++i) {
        out += "    {\"name\": \"" + jsonEscape(objects[i].name) +
               "\", \"size\": " + std::to_string(objects[i].size) +
               ", \"age_seconds\": " + formatDouble(objects[i].ageSeconds) +
               "}";
        out += i + 1 < objects.size() ? ",\n" : "\n";
    }
    out += "  ]\n";
    out += "}\n";
    return out;
}

obs::HttpResponse
StoreServer::handle(const obs::HttpRequest &request)
{
    if (request.path == "/manifest") {
        if (request.method != "GET")
            return jsonError(405, "method");
        obs::HttpResponse resp;
        resp.body =
            renderManifest(obs::httpQueryParam(request.query, "prefix"));
        return resp;
    }
    if (request.path.rfind("/obj/", 0) != 0)
        return jsonError(404, "not found");

    const std::string name = request.path.substr(5);
    if (!isValidStoreName(name))
        return jsonError(400, "bad object name");

    if (request.method == "PUT") {
        const bool overwrite =
            obs::httpQueryParam(request.query, "overwrite") == "1";
        const bool existed = !overwrite && backing_.exists(name);
        if (!backing_.put(name, request.body, overwrite))
            return jsonError(500, "store failed");
        obs::HttpResponse resp;
        resp.status = existed ? 200 : 201;
        resp.body = existed ? "{\"deduped\": true}\n" : "{\"ok\": true}\n";
        return resp;
    }
    if (request.method == "GET" || request.method == "HEAD") {
        std::optional<std::string> bytes = backing_.get(name);
        if (!bytes)
            return jsonError(404, "no such object");
        obs::HttpResponse resp;
        resp.contentType = "application/octet-stream";
        if (request.method == "GET")
            resp.body = *std::move(bytes);
        return resp;
    }
    if (request.method == "DELETE") {
        if (!backing_.exists(name))
            return jsonError(404, "no such object");
        if (!backing_.remove(name))
            return jsonError(500, "remove failed");
        obs::HttpResponse resp;
        resp.body = "{\"ok\": true}\n";
        return resp;
    }
    return jsonError(405, "method");
}

bool
StoreServer::start(const std::string &bind_addr, std::uint16_t port,
                   const std::string &token)
{
    return server_.start(bind_addr, port, token,
                         [this](const obs::HttpRequest &request) {
                             return handle(request);
                         });
}

} // namespace tcsim::bench
