<?php
// Greeting banner pulled in by welcome.php: it echoes the visitor's
// name from the query string unescaped, so the XSS sink of welcome.php
// lives in this included file (the finding's location is banner.php:6).
$who = $_GET['who'];
echo "<div class='banner'>Hello, $who</div>";
?>
