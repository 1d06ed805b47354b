/**
 * @file
 * Minimal HTTP plumbing for the sweep farm: the scheduler
 * (tcsim_sched) serves its lease routes through HttpServer, and pull
 * workers call them through httpRequest, instead of each owning a
 * socket loop.
 *
 * Scope is deliberately small: HTTP/1.0, one request per connection,
 * plain POSIX sockets, no TLS, mandatory bearer-token auth on the
 * server side (a tokenless server is refused by construction, and an
 * unauthorized request learns nothing but "401"). Requests may carry
 * a Content-Length body (workers POST result fragments), capped
 * server-side so a rogue peer cannot balloon the process.
 */

#ifndef TCSIM_OBS_HTTP_H
#define TCSIM_OBS_HTTP_H

#include <atomic>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <thread>

namespace tcsim::obs
{

/** One parsed request as delivered to a server handler. */
struct HttpRequest
{
    std::string method; ///< "GET", "PUT", ...
    std::string path;   ///< raw path (not percent-decoded), no query
    std::string query;  ///< raw query string (no leading '?')
    std::string body;
};

/** One response as produced by a server handler. */
struct HttpResponse
{
    int status = 200;
    std::string contentType = "application/json";
    std::string body;
};

/** Render @p resp as HTTP/1.0 bytes (adds WWW-Authenticate on 401). */
std::string renderHttpResponse(const HttpResponse &resp);

/** The canonical reason phrase for @p status ("OK", "Not Found"...). */
const char *httpStatusText(int status);

/**
 * Split "http://host:port[/]" into host and port.
 * @return false when @p url is not of that shape.
 */
bool parseHttpUrl(const std::string &url, std::string &host_out,
                  std::uint16_t &port_out);

/** The raw value of `key=` in @p query; "1" for a bare `key`, "" when
 * absent. */
std::string httpQueryParam(const std::string &query, const std::string &key);

/**
 * A single-threaded accept loop serving one handler. Every request
 * must present `Authorization: Bearer <token>` or it is answered 401
 * before the handler ever sees it.
 */
class HttpServer
{
  public:
    using Handler = std::function<HttpResponse(const HttpRequest &)>;

    HttpServer() = default;
    ~HttpServer() { stop(); }

    HttpServer(const HttpServer &) = delete;
    HttpServer &operator=(const HttpServer &) = delete;

    /**
     * Bind @p bind_addr:@p port (port 0 = ephemeral; see port()) and
     * serve @p handler on a background thread. @p token must be
     * non-empty. @return false (with a message on stderr) on bind
     * failure or an empty token.
     */
    bool start(const std::string &bind_addr, std::uint16_t port,
               const std::string &token, Handler handler);

    /** The bound port (resolves port 0); 0 when not running. */
    std::uint16_t port() const { return port_; }

    bool running() const { return running_.load(); }

    /** Shut the accept loop down and join the thread (idempotent). */
    void stop();

  private:
    void serveLoop();
    void handleConnection(int fd);

    int listenFd_ = -1;
    std::uint16_t port_ = 0;
    std::string token_;
    Handler handler_;
    std::atomic<bool> running_{false};
    std::atomic<bool> stopping_{false};
    std::thread thread_;
};

/** What an httpRequest() round trip produced. */
struct HttpResult
{
    int status = 0;
    std::string body;
};

/**
 * One blocking HTTP/1.0 exchange: connect to @p host:@p port, send
 * @p method @p path with the bearer @p token and optional @p body,
 * read the response until the server closes.
 * @return empty optional on connect/transport failure (a parsed
 * non-2xx response is still a result, not a failure).
 */
std::optional<HttpResult>
httpRequest(const std::string &host, std::uint16_t port,
            const std::string &method, const std::string &path,
            const std::string &token, std::string_view body = {},
            int timeout_ms = 30000);

} // namespace tcsim::obs

#endif // TCSIM_OBS_HTTP_H
