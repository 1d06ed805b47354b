#include "obs/http.h"

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include <arpa/inet.h>
#include <netdb.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

namespace tcsim::obs
{

namespace
{

/** Hard cap on one request or response body: fragments are KBs and
 * the partial document grows with the matrix — 256 MB is far beyond
 * anything legitimate. */
constexpr std::size_t kMaxBodyBytes = 256u * 1024 * 1024;

void
sendAll(int fd, const std::string &bytes)
{
    std::size_t sent = 0;
    while (sent < bytes.size()) {
        const ssize_t n =
            send(fd, bytes.data() + sent, bytes.size() - sent,
                 MSG_NOSIGNAL);
        if (n <= 0)
            return;
        sent += static_cast<std::size_t>(n);
    }
}

/** Fields scraped from a raw request head. */
struct RequestHead
{
    std::string method;
    std::string target; ///< path?query, still joined
    std::string bearer;
    std::size_t contentLength = 0;
    bool contentLengthValid = true;
};

RequestHead
parseRequestHead(const std::string &raw)
{
    RequestHead head;
    std::size_t line_end = raw.find('\n');
    const std::string first =
        raw.substr(0, line_end == std::string::npos ? raw.size()
                                                    : line_end);
    {
        const std::size_t sp1 = first.find(' ');
        if (sp1 != std::string::npos) {
            head.method = first.substr(0, sp1);
            const std::size_t sp2 = first.find(' ', sp1 + 1);
            head.target = first.substr(
                sp1 + 1,
                sp2 == std::string::npos ? std::string::npos
                                         : sp2 - sp1 - 1);
            while (!head.target.empty() &&
                   (head.target.back() == '\r' ||
                    head.target.back() == '\n'))
                head.target.pop_back();
        }
    }
    std::size_t pos = line_end;
    while (pos != std::string::npos && pos + 1 < raw.size()) {
        const std::size_t start = pos + 1;
        pos = raw.find('\n', start);
        std::string line = raw.substr(
            start,
            pos == std::string::npos ? std::string::npos : pos - start);
        if (!line.empty() && line.back() == '\r')
            line.pop_back();
        if (line.empty())
            break; // end of headers
        std::string lower = line;
        for (char &c : lower)
            c = static_cast<char>(
                std::tolower(static_cast<unsigned char>(c)));
        const auto value_of = [&](const char *header) {
            std::string value = line.substr(std::strlen(header));
            while (!value.empty() && value.front() == ' ')
                value.erase(value.begin());
            return value;
        };
        if (lower.rfind("authorization:", 0) == 0) {
            const std::string value = value_of("authorization:");
            constexpr const char *kBearer = "Bearer ";
            if (value.rfind(kBearer, 0) == 0)
                head.bearer = value.substr(std::strlen(kBearer));
        } else if (lower.rfind("content-length:", 0) == 0) {
            const std::string value = value_of("content-length:");
            char *end = nullptr;
            const unsigned long long n =
                std::strtoull(value.c_str(), &end, 10);
            if (end == value.c_str() || n > kMaxBodyBytes)
                head.contentLengthValid = false;
            else
                head.contentLength = static_cast<std::size_t>(n);
        }
    }
    return head;
}

/** Offset of the first body byte, or npos while headers are
 * incomplete. */
std::size_t
headerEnd(const std::string &raw)
{
    const std::size_t crlf = raw.find("\r\n\r\n");
    if (crlf != std::string::npos)
        return crlf + 4;
    const std::size_t lf = raw.find("\n\n");
    if (lf != std::string::npos)
        return lf + 2;
    return std::string::npos;
}

} // namespace

const char *
httpStatusText(int status)
{
    switch (status) {
    case 200:
        return "OK";
    case 204:
        return "No Content";
    case 400:
        return "Bad Request";
    case 401:
        return "Unauthorized";
    case 403:
        return "Forbidden";
    case 404:
        return "Not Found";
    case 405:
        return "Method Not Allowed";
    case 409:
        return "Conflict";
    case 413:
        return "Payload Too Large";
    case 503:
        return "Service Unavailable";
    default:
        return status >= 500 ? "Internal Server Error" : "Error";
    }
}

std::string
renderHttpResponse(const HttpResponse &resp)
{
    std::string out = "HTTP/1.0 ";
    out += std::to_string(resp.status);
    out += ' ';
    out += httpStatusText(resp.status);
    out += "\r\nContent-Type: " + resp.contentType + "\r\n";
    out += "Content-Length: " + std::to_string(resp.body.size()) + "\r\n";
    out += "Connection: close\r\n";
    if (resp.status == 401)
        out += "WWW-Authenticate: Bearer\r\n";
    out += "\r\n";
    out += resp.body;
    return out;
}

std::string
httpQueryParam(const std::string &query, const std::string &key)
{
    std::size_t start = 0;
    while (start <= query.size()) {
        const std::size_t amp = query.find('&', start);
        const std::size_t end =
            amp == std::string::npos ? query.size() : amp;
        const std::string pair = query.substr(start, end - start);
        const std::size_t eq = pair.find('=');
        if (eq != std::string::npos && pair.substr(0, eq) == key)
            return pair.substr(eq + 1);
        if (pair == key)
            return "1"; // bare flag
        if (amp == std::string::npos)
            break;
        start = amp + 1;
    }
    return "";
}

bool
parseHttpUrl(const std::string &url, std::string &host_out,
             std::uint16_t &port_out)
{
    constexpr const char *kScheme = "http://";
    if (url.rfind(kScheme, 0) != 0)
        return false;
    std::string rest = url.substr(std::strlen(kScheme));
    while (!rest.empty() && rest.back() == '/')
        rest.pop_back();
    const std::size_t colon = rest.rfind(':');
    if (colon == std::string::npos || colon == 0 ||
        colon + 1 >= rest.size())
        return false;
    char *end = nullptr;
    const std::string port_text = rest.substr(colon + 1);
    const unsigned long port = std::strtoul(port_text.c_str(), &end, 10);
    if (end == nullptr || *end != '\0' || port == 0 || port > 65535)
        return false;
    host_out = rest.substr(0, colon);
    port_out = static_cast<std::uint16_t>(port);
    return true;
}

bool
HttpServer::start(const std::string &bind_addr, std::uint16_t port,
                  const std::string &token, Handler handler)
{
    if (running_.load())
        return false;
    if (token.empty()) {
        std::fprintf(stderr,
                     "http server: refusing to start without a "
                     "bearer token\n");
        return false;
    }
    if (!handler) {
        std::fprintf(stderr, "http server: null handler\n");
        return false;
    }
    listenFd_ = socket(AF_INET, SOCK_STREAM, 0);
    if (listenFd_ < 0) {
        std::perror("http server: socket");
        return false;
    }
    const int one = 1;
    setsockopt(listenFd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    if (inet_pton(AF_INET, bind_addr.c_str(), &addr.sin_addr) != 1) {
        std::fprintf(stderr, "http server: bad bind address '%s'\n",
                     bind_addr.c_str());
        close(listenFd_);
        listenFd_ = -1;
        return false;
    }
    if (bind(listenFd_, reinterpret_cast<sockaddr *>(&addr),
             sizeof(addr)) != 0 ||
        listen(listenFd_, 64) != 0) {
        std::perror("http server: bind/listen");
        close(listenFd_);
        listenFd_ = -1;
        return false;
    }
    socklen_t len = sizeof(addr);
    if (getsockname(listenFd_, reinterpret_cast<sockaddr *>(&addr),
                    &len) == 0) {
        port_ = ntohs(addr.sin_port);
    }
    token_ = token;
    handler_ = std::move(handler);
    stopping_.store(false);
    running_.store(true);
    thread_ = std::thread(&HttpServer::serveLoop, this);
    return true;
}

void
HttpServer::stop()
{
    if (!running_.load())
        return;
    stopping_.store(true);
    if (thread_.joinable())
        thread_.join();
    if (listenFd_ >= 0) {
        close(listenFd_);
        listenFd_ = -1;
    }
    running_.store(false);
    port_ = 0;
}

void
HttpServer::serveLoop()
{
    while (!stopping_.load()) {
        pollfd pfd{listenFd_, POLLIN, 0};
        const int ready = poll(&pfd, 1, /*timeout_ms=*/200);
        if (ready <= 0)
            continue;
        const int fd = accept(listenFd_, nullptr, nullptr);
        if (fd < 0)
            continue;
        handleConnection(fd);
        close(fd);
    }
}

void
HttpServer::handleConnection(int fd)
{
    // Read the head, then exactly Content-Length body bytes. A peer
    // that dribbles slower than the poll timeout is judged on what
    // arrived; an oversized declaration is cut off at the cap.
    std::string raw;
    char buf[64 * 1024];
    std::size_t body_start = std::string::npos;
    RequestHead head;
    for (int rounds = 0; rounds < 4096; ++rounds) {
        if (body_start != std::string::npos &&
            raw.size() - body_start >= head.contentLength)
            break;
        pollfd pfd{fd, POLLIN, 0};
        if (poll(&pfd, 1, /*timeout_ms=*/2000) <= 0)
            break;
        const ssize_t n = recv(fd, buf, sizeof(buf), 0);
        if (n <= 0)
            break;
        raw.append(buf, static_cast<std::size_t>(n));
        if (body_start == std::string::npos) {
            body_start = headerEnd(raw);
            if (body_start != std::string::npos) {
                head = parseRequestHead(raw.substr(0, body_start));
                if (!head.contentLengthValid ||
                    head.contentLength > kMaxBodyBytes) {
                    sendAll(fd,
                            renderHttpResponse(
                                {413, "application/json",
                                 "{\"error\": \"too large\"}\n"}));
                    return;
                }
            }
        }
        if (raw.size() > kMaxBodyBytes + 64 * 1024)
            break;
    }
    if (body_start == std::string::npos)
        head = parseRequestHead(raw);

    if (head.bearer != token_) {
        sendAll(fd, renderHttpResponse(
                        {401, "application/json",
                         "{\"error\": \"unauthorized\"}\n"}));
        return;
    }

    HttpRequest request;
    request.method = head.method;
    const std::size_t qmark = head.target.find('?');
    request.path = head.target.substr(0, qmark);
    if (qmark != std::string::npos)
        request.query = head.target.substr(qmark + 1);
    if (body_start != std::string::npos)
        request.body = raw.substr(body_start);
    if (request.body.size() > head.contentLength)
        request.body.resize(head.contentLength);

    sendAll(fd, renderHttpResponse(handler_(request)));
}

std::optional<HttpResult>
httpRequest(const std::string &host, std::uint16_t port,
            const std::string &method, const std::string &path,
            const std::string &token, std::string_view body,
            int timeout_ms)
{
    addrinfo hints{};
    hints.ai_family = AF_INET;
    hints.ai_socktype = SOCK_STREAM;
    addrinfo *info = nullptr;
    if (getaddrinfo(host.c_str(), std::to_string(port).c_str(), &hints,
                    &info) != 0 ||
        info == nullptr) {
        return std::nullopt;
    }
    const int fd = socket(info->ai_family, info->ai_socktype,
                          info->ai_protocol);
    if (fd < 0) {
        freeaddrinfo(info);
        return std::nullopt;
    }
    const int rc = connect(fd, info->ai_addr, info->ai_addrlen);
    freeaddrinfo(info);
    if (rc != 0) {
        close(fd);
        return std::nullopt;
    }

    std::string request = method + " " + path + " HTTP/1.0\r\n";
    request += "Host: " + host + "\r\n";
    request += "Authorization: Bearer " + token + "\r\n";
    request += "Content-Length: " + std::to_string(body.size()) + "\r\n";
    request += "Connection: close\r\n\r\n";
    request.append(body.data(), body.size());
    sendAll(fd, request);

    std::string raw;
    char buf[64 * 1024];
    const int per_poll = timeout_ms > 0 ? timeout_ms : 30000;
    while (raw.size() < kMaxBodyBytes + 64 * 1024) {
        pollfd pfd{fd, POLLIN, 0};
        if (poll(&pfd, 1, per_poll) <= 0)
            break;
        const ssize_t n = recv(fd, buf, sizeof(buf), 0);
        if (n < 0)
            break;
        if (n == 0)
            break; // orderly close: response complete
        raw.append(buf, static_cast<std::size_t>(n));
    }
    close(fd);

    // "HTTP/1.x NNN ..." status line, headers, blank line, body.
    if (raw.rfind("HTTP/", 0) != 0)
        return std::nullopt;
    const std::size_t sp = raw.find(' ');
    if (sp == std::string::npos || sp + 4 > raw.size())
        return std::nullopt;
    HttpResult result;
    result.status = std::atoi(raw.c_str() + sp + 1);
    if (result.status == 0)
        return std::nullopt;
    const std::size_t body_at = headerEnd(raw);
    if (body_at != std::string::npos)
        result.body = raw.substr(body_at);
    return result;
}

} // namespace tcsim::obs
